#include "aig/validate.h"

#include <algorithm>
#include <sstream>

namespace csat::aig {

namespace {

void fail(ValidationReport& report, const std::string& message) {
  report.ok = false;
  report.errors.push_back(message);
}

}  // namespace

ValidationReport validate(const Aig& g) {
  ValidationReport report;
  const std::size_t n = g.num_nodes();

  if (n == 0 || !g.is_const(0)) {
    fail(report, "node 0 must be the constant");
    return report;
  }

  std::vector<std::uint32_t> expected_refs(n, 0);
  for (std::uint32_t i = 1; i < n; ++i) {
    if (!g.is_and(i)) continue;
    const Lit f0 = g.fanin0(i);
    const Lit f1 = g.fanin1(i);
    // Topological ids: fanins strictly below the node.
    if (f0.node() >= i || f1.node() >= i) {
      std::ostringstream msg;
      msg << "node " << i << ": fanin not below node (topological order broken)";
      fail(report, msg.str());
      continue;
    }
    // Canonical operand order and no trivial gates surviving strash.
    if (f1 < f0) {
      std::ostringstream msg;
      msg << "node " << i << ": operands not in canonical order";
      fail(report, msg.str());
    }
    if (f0 == f1 || f0 == !f1 || f0.node() == 0) {
      std::ostringstream msg;
      msg << "node " << i << ": trivial AND escaped structural hashing";
      fail(report, msg.str());
    }
    // Level bookkeeping.
    const int expected =
        1 + std::max(g.level(f0.node()), g.level(f1.node()));
    if (g.level(i) != expected) {
      std::ostringstream msg;
      msg << "node " << i << ": level " << g.level(i) << " != " << expected;
      fail(report, msg.str());
    }
    ++expected_refs[f0.node()];
    ++expected_refs[f1.node()];
  }
  for (Lit po : g.pos()) {
    if (po.node() >= n) {
      fail(report, "PO references nonexistent node");
      continue;
    }
    ++expected_refs[po.node()];
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (g.fanout_count(i) != expected_refs[i]) {
      std::ostringstream msg;
      msg << "node " << i << ": fanout_count " << g.fanout_count(i)
          << " != recomputed " << expected_refs[i];
      fail(report, msg.str());
    }
  }
  // PI bookkeeping.
  for (std::size_t i = 0; i < g.pis().size(); ++i) {
    const std::uint32_t pi = g.pis()[i];
    if (!g.is_pi(pi)) {
      fail(report, "pis() entry is not a PI node");
    } else if (g.pi_index(pi) != static_cast<int>(i)) {
      fail(report, "pi_index out of sync with pis() order");
    }
  }
  return report;
}

}  // namespace csat::aig
