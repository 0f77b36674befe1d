#include "lut/mapper.h"

#include <algorithm>
#include <array>
#include <limits>
#include <unordered_map>

#include "cut/cut_enum.h"
#include "tt/isop.h"

namespace csat::lut {

int cached_branching_cost(std::uint64_t bits, int num_vars) {
  CSAT_CHECK(num_vars >= 0 && num_vars <= 6);
  // One table per arity: the key is the exact (arity, table) pair.
  static thread_local std::array<std::unordered_map<std::uint64_t, int>, 7>
      cache;
  auto& by_table = cache[static_cast<std::size_t>(num_vars)];
  if (const auto it = by_table.find(bits); it != by_table.end())
    return it->second;
  const int cost = tt::branching_cost(bits, num_vars);
  by_table.emplace(bits, cost);
  return cost;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Priority cuts kept per node.
constexpr int kMaxCuts = 8;
/// Cost-recovery rounds after the delay-optimal round.
constexpr int kRecoveryRounds = 2;

struct NodeChoice {
  int best_cut = -1;      ///< index into the node's cut set
  int depth = 0;          ///< LUT depth when this node is a LUT output
  double flow = 0.0;      ///< cost flow estimate
  int required = 1 << 30; ///< latest allowed depth
  int map_refs = 0;       ///< times selected as a leaf in the derived cover
};

double cut_cost(const cut::Cut& c, const MapperParams& params) {
  return params.cost == CostKind::kArea
             ? 1.0
             : static_cast<double>(cached_branching_cost(c.func, c.size())) +
                   params.branching_lut_offset;
}

}  // namespace

MappingResult map_to_luts(const aig::Aig& g, const MapperParams& params) {
  CSAT_CHECK(params.lut_size >= 2 && params.lut_size <= 6);

  // Unit cuts take part in enumeration (they yield the {fanin0, fanin1}
  // base cut at every node); selection below skips them, since a unit cut
  // is never a LUT candidate.
  const cut::CutEnumerator cuts(
      g, cut::CutParams{.cut_size = params.lut_size, .max_cuts = kMaxCuts});

  const auto live = g.live_ands();
  std::vector<NodeChoice> info(g.num_nodes());

  // Reference estimates start from structural fanout counts.
  std::vector<double> refs(g.num_nodes(), 1.0);
  for (std::uint32_t n = 0; n < g.num_nodes(); ++n)
    refs[n] = std::max<std::uint32_t>(1, g.fanout_count(n));

  const auto evaluate_round = [&](bool delay_mode) {
    for (std::uint32_t n : live) {
      const auto& cset = cuts.cuts(n);
      CSAT_CHECK_MSG(!cset.empty(), "mapper: AND node without cuts");
      int best = -1;
      int best_depth = 0;
      double best_flow = kInf;
      int fastest = -1;  // depth-optimal fallback when no cut meets required
      int fastest_depth = 0;
      double fastest_flow = kInf;
      for (std::size_t ci = 0; ci < cset.size(); ++ci) {
        const cut::Cut& c = cset[ci];
        if (c.size() == 1) continue;  // unit cut: not a LUT candidate
        int depth = 0;
        double flow = cut_cost(c, params);
        for (std::uint32_t leaf : c.leaves()) {
          depth = std::max(depth, g.is_and(leaf) ? info[leaf].depth : 0);
          flow += (g.is_and(leaf) ? info[leaf].flow : 0.0) / refs[leaf];
        }
        depth += 1;
        if (fastest < 0 || depth < fastest_depth ||
            (depth == fastest_depth && flow < fastest_flow)) {
          fastest = static_cast<int>(ci);
          fastest_depth = depth;
          fastest_flow = flow;
        }
        if (!delay_mode && depth > info[n].required) continue;
        const bool better =
            delay_mode
                ? (depth < best_depth || best < 0 ||
                   (depth == best_depth && flow < best_flow))
                : (flow < best_flow || best < 0 ||
                   (flow == best_flow && depth < best_depth));
        if (better) {
          best = static_cast<int>(ci);
          best_depth = depth;
          best_flow = flow;
        }
      }
      if (best < 0) {
        // Leaf depths moved under us this round; fall back to the
        // depth-optimal choice (required times re-settle next round).
        best = fastest;
        best_depth = fastest_depth;
        best_flow = fastest_flow;
      }
      info[n].best_cut = best;
      info[n].depth = best_depth;
      info[n].flow = best_flow;
    }
  };

  const auto compute_required = [&](int target_depth) {
    for (std::uint32_t n = 0; n < g.num_nodes(); ++n)
      info[n].required = 1 << 30;
    for (aig::Lit po : g.pos())
      if (g.is_and(po.node()))
        info[po.node()].required = target_depth;
    for (auto it = live.rbegin(); it != live.rend(); ++it) {
      const std::uint32_t n = *it;
      const cut::Cut& c = cuts.cuts(n)[info[n].best_cut];
      for (std::uint32_t leaf : c.leaves())
        if (g.is_and(leaf))
          info[leaf].required =
              std::min(info[leaf].required, info[n].required - 1);
    }
  };

  /// Derives the cover implied by the current best cuts and refreshes
  /// map_refs (used to sharpen the flow denominator in recovery rounds).
  const auto derive_refs = [&]() {
    for (std::uint32_t n = 0; n < g.num_nodes(); ++n) info[n].map_refs = 0;
    std::vector<std::uint32_t> frontier;
    for (aig::Lit po : g.pos())
      if (g.is_and(po.node())) {
        if (info[po.node()].map_refs++ == 0) frontier.push_back(po.node());
      }
    while (!frontier.empty()) {
      const std::uint32_t n = frontier.back();
      frontier.pop_back();
      const cut::Cut& c = cuts.cuts(n)[info[n].best_cut];
      for (std::uint32_t leaf : c.leaves())
        if (g.is_and(leaf) && info[leaf].map_refs++ == 0)
          frontier.push_back(leaf);
    }
    for (std::uint32_t n = 0; n < g.num_nodes(); ++n)
      refs[n] = std::max(1, info[n].map_refs);
  };

  // Round 0: delay-optimal. Then fix the depth target (strict, as in the
  // paper) and recover cost under it.
  evaluate_round(/*delay_mode=*/true);
  int target_depth = 0;
  for (aig::Lit po : g.pos())
    if (g.is_and(po.node()))
      target_depth = std::max(target_depth, info[po.node()].depth);

  for (int round = 0; round < kRecoveryRounds; ++round) {
    compute_required(target_depth);
    derive_refs();
    evaluate_round(/*delay_mode=*/false);
  }

  // --- derive the final cover and materialize the LutNetwork -------------
  std::vector<char> needed(g.num_nodes(), 0);
  {
    std::vector<std::uint32_t> frontier;
    for (aig::Lit po : g.pos())
      if (g.is_and(po.node()) && !needed[po.node()]) {
        needed[po.node()] = 1;
        frontier.push_back(po.node());
      }
    while (!frontier.empty()) {
      const std::uint32_t n = frontier.back();
      frontier.pop_back();
      const cut::Cut& c = cuts.cuts(n)[info[n].best_cut];
      for (std::uint32_t leaf : c.leaves())
        if (g.is_and(leaf) && !needed[leaf]) {
          needed[leaf] = 1;
          frontier.push_back(leaf);
        }
    }
  }

  MappingResult result;
  result.target_depth = target_depth;
  std::vector<std::uint32_t> node_map(g.num_nodes(),
                                      std::numeric_limits<std::uint32_t>::max());
  for (std::uint32_t pi : g.pis()) node_map[pi] = result.netlist.add_pi();
  for (std::uint32_t n : live) {
    if (!needed[n]) continue;
    const cut::Cut& c = cuts.cuts(n)[info[n].best_cut];
    std::vector<std::uint32_t> fanins;
    fanins.reserve(c.leaves().size());
    for (std::uint32_t leaf : c.leaves()) {
      CSAT_DCHECK(node_map[leaf] != std::numeric_limits<std::uint32_t>::max());
      fanins.push_back(node_map[leaf]);
    }
    node_map[n] = result.netlist.add_lut(std::move(fanins), c.func);
    result.total_cost += cut_cost(c, params);
    result.total_branching += cached_branching_cost(c.func, c.size());
  }
  for (aig::Lit po : g.pos()) {
    if (po.node() == 0) {
      result.netlist.add_po_const(po.is_compl());
    } else {
      result.netlist.add_po(node_map[po.node()], po.is_compl());
    }
  }
  result.num_luts = result.netlist.num_luts();
  result.depth = result.netlist.depth();
  return result;
}

}  // namespace csat::lut
