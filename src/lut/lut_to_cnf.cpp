#include "lut/lut_to_cnf.h"

#include "tt/isop.h"

namespace csat::lut {

using cnf::Lit;

LutCnfResult lut_to_cnf(const LutNetwork& net) {
  LutCnfResult r;
  r.node2var.resize(net.num_nodes());
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n)
    r.node2var[n] = r.cnf.new_var();

  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    if (net.is_pi(n)) continue;
    const auto& fanins = net.fanins(n);
    const int k = static_cast<int>(fanins.size());
    const std::uint64_t f = net.func(n);
    const Lit y = Lit::make(r.node2var[n], false);

    const auto emit = [&](const std::vector<tt::Cube>& cubes, Lit out) {
      std::vector<Lit> clause;
      for (const tt::Cube& cube : cubes) {
        clause.clear();
        for (int v = 0; v < k; ++v) {
          if (!cube.has_var(v)) continue;
          // cube literal is x_v (or ~x_v); the clause takes its negation.
          clause.push_back(Lit::make(r.node2var[fanins[v]], cube.is_positive(v)));
        }
        clause.push_back(out);
        r.cnf.add_clause(clause);
      }
    };
    emit(tt::isop(f, k), y);    // onset cubes imply y
    emit(tt::isop(~f, k), !y);  // offset cubes imply ~y
  }

  // CSAT goal: at least one PO evaluates to 1.
  std::vector<Lit> goal;
  for (const auto& po : net.pos()) {
    switch (po.kind) {
      case LutNetwork::Po::Kind::kConst1:
        r.trivially_sat = true;
        break;
      case LutNetwork::Po::Kind::kConst0:
        break;
      case LutNetwork::Po::Kind::kNode:
        goal.push_back(Lit::make(r.node2var[po.node], po.complemented));
        break;
    }
  }
  if (r.trivially_sat) return r;
  if (goal.empty()) {
    r.trivially_unsat = true;
    const Lit f = Lit::make(r.cnf.num_vars() == 0 ? r.cnf.new_var() : 0, false);
    r.cnf.add_unit(f);
    r.cnf.add_unit(!f);
    return r;
  }
  r.cnf.add_clause(goal);
  return r;
}

std::vector<bool> witness_from_model(const LutNetwork& net,
                                     const LutCnfResult& enc,
                                     const std::vector<bool>& model) {
  std::vector<bool> w;
  w.reserve(net.num_pis());
  for (std::uint32_t pi : net.pis()) {
    const std::uint32_t v = enc.node2var[pi];
    w.push_back(v < model.size() ? model[v] : false);
  }
  return w;
}

}  // namespace csat::lut
