#include "aig/window.h"

#include <algorithm>

namespace csat::aig {

namespace {

/// Leaves sets are tiny (<= ~12), so linear scans beat hashing.
bool contains(const std::vector<std::uint32_t>& xs, std::uint32_t x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

/// Cost of expanding leaf \p n: new leaves added minus the one removed.
int expansion_cost(const Aig& g, std::uint32_t n,
                   const std::vector<std::uint32_t>& leaves) {
  int added = 0;
  if (!contains(leaves, g.fanin0(n).node())) ++added;
  if (g.fanin1(n).node() != g.fanin0(n).node() &&
      !contains(leaves, g.fanin1(n).node()))
    ++added;
  return added - 1;
}

}  // namespace

std::vector<std::uint32_t> reconv_cut(const Aig& g, std::uint32_t root,
                                      int max_leaves) {
  CSAT_CHECK(max_leaves >= 2);
  if (!g.is_and(root)) return {root};
  std::vector<std::uint32_t> leaves;
  leaves.push_back(g.fanin0(root).node());
  if (g.fanin1(root).node() != g.fanin0(root).node())
    leaves.push_back(g.fanin1(root).node());

  for (;;) {
    std::uint32_t best = 0;
    int best_cost = 1000;
    for (std::uint32_t l : leaves) {
      if (!g.is_and(l)) continue;  // PIs / constant cannot expand
      const int cost = expansion_cost(g, l, leaves);
      // Prefer reconvergence (lowest cost); tie-break on deeper nodes, which
      // keeps the cut's logic close to the root.
      if (cost < best_cost ||
          (cost == best_cost && best != 0 && g.level(l) > g.level(best))) {
        best_cost = cost;
        best = l;
      }
    }
    if (best == 0) break;  // nothing expandable
    if (static_cast<int>(leaves.size()) + best_cost > max_leaves &&
        best_cost > 0)
      break;
    leaves.erase(std::find(leaves.begin(), leaves.end(), best));
    for (Lit f : {g.fanin0(best), g.fanin1(best)})
      if (!contains(leaves, f.node())) leaves.push_back(f.node());
    if (static_cast<int>(leaves.size()) >= max_leaves) break;
  }
  return leaves;
}

std::vector<std::uint32_t> collect_cone(const Aig& g, std::uint32_t root,
                                        const std::vector<std::uint32_t>& leaves) {
  std::vector<std::uint32_t> cone;
  std::vector<std::uint32_t> stack{root};
  std::vector<std::uint32_t> seen;
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (contains(leaves, n) || contains(seen, n)) continue;
    seen.push_back(n);
    CSAT_CHECK_MSG(g.is_and(n), "collect_cone: leaves are not a cut");
    cone.push_back(n);
    stack.push_back(g.fanin0(n).node());
    stack.push_back(g.fanin1(n).node());
  }
  std::sort(cone.begin(), cone.end());
  return cone;
}

std::vector<std::uint32_t> mffc_nodes(const Aig& g, std::uint32_t root) {
  thread_local MffcWalker walker;
  walker.walk(g, root);
  return walker.nodes();
}

FanoutIndex::FanoutIndex(const Aig& g) : fanouts_(g.num_nodes()) {
  for (std::uint32_t n = 0; n < g.num_nodes(); ++n) {
    if (!g.is_and(n)) continue;
    fanouts_[g.fanin0(n).node()].push_back(n);
    if (g.fanin1(n).node() != g.fanin0(n).node())
      fanouts_[g.fanin1(n).node()].push_back(n);
  }
}

std::vector<std::uint32_t> collect_divisors(const Aig& g, std::uint32_t root,
                                            const std::vector<std::uint32_t>& leaves,
                                            const FanoutIndex& fanouts,
                                            int max_divisors) {
  // Everything expressible over the leaves: start with the leaves, close
  // forward over nodes whose both fanins are already inside; skip the MFFC
  // of root (it disappears with root) and anything at/above root's level.
  thread_local MffcWalker mffc;
  mffc.walk(g, root);

  std::vector<std::uint32_t> divisors(leaves.begin(), leaves.end());
  std::vector<std::uint32_t> frontier(leaves.begin(), leaves.end());
  const auto inside = [&divisors](std::uint32_t n) {
    return contains(divisors, n);
  };

  while (!frontier.empty() &&
         static_cast<int>(divisors.size()) < max_divisors) {
    const std::uint32_t n = frontier.back();
    frontier.pop_back();
    for (std::uint32_t fo : fanouts.fanouts(n)) {
      if (fo == root || g.level(fo) >= g.level(root)) continue;
      if (inside(fo) || mffc.contains(fo)) continue;
      if (!inside(g.fanin0(fo).node()) || !inside(g.fanin1(fo).node()))
        continue;
      divisors.push_back(fo);
      frontier.push_back(fo);
      if (static_cast<int>(divisors.size()) >= max_divisors) break;
    }
  }
  return divisors;
}

}  // namespace csat::aig
