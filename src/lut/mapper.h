#ifndef CSAT_LUT_MAPPER_H
#define CSAT_LUT_MAPPER_H

/// \file mapper.h
/// Priority-cuts k-LUT mapper with a pluggable cut-cost function — the
/// paper's cost-customized mapping (Section III-C).
///
/// The mapper runs a delay-optimal pass followed by cost-recovery passes
/// (area-flow with mapping-derived reference estimates) under the delay
/// obtained in the first pass ("delay as a constraint"). The only
/// difference between the conventional baseline and the paper's mapper is
/// the cost functor:
///   * CostKind::kArea      — every LUT costs 1 (conventional size-oriented
///     mapping, the `Comp.`/`C. Mapper` baselines),
///   * CostKind::kBranching — a LUT costs its branching complexity
///     C(f) = |ISOP(f)| + |ISOP(~f)| (Fig. 3), which equals the number of
///     CNF clauses the ISOP encoder will emit for it; minimizing total cost
///     minimizes the branching surface of the final CNF.

#include <cstdint>

#include "aig/aig.h"
#include "lut/lut_network.h"

namespace csat::lut {

enum class CostKind : std::uint8_t { kArea, kBranching };

struct MapperParams {
  int lut_size = 4;
  CostKind cost = CostKind::kArea;
  /// Additive per-LUT term for CostKind::kBranching: every mapped LUT also
  /// introduces one CNF variable the solver can branch on, so the effective
  /// branching surface is C(f) + offset. The default 0 is the paper's pure
  /// cube-count metric, which the mapper_cost_sweep ablation confirms is
  /// the best setting on datapath workloads.
  double branching_lut_offset = 0.0;
};

struct MappingResult {
  LutNetwork netlist;
  int depth = 0;
  /// Delay-optimal depth found in round 0 (the constraint for recovery).
  int target_depth = 0;
  std::size_t num_luts = 0;
  /// Total cut cost under the chosen CostKind.
  double total_cost = 0.0;
  /// Total branching complexity of the mapped netlist (computed for both
  /// cost kinds; this is what the final CNF's clause count tracks).
  std::int64_t total_branching = 0;
};

/// Maps \p g into a k-LUT netlist. PIs map 1:1; each PO keeps its polarity.
MappingResult map_to_luts(const aig::Aig& g, const MapperParams& params = {});

/// Branching complexity of the \p num_vars-input LUT function whose table is
/// the low 2^num_vars bits of \p bits (<= 6 inputs), memoized per thread.
int cached_branching_cost(std::uint64_t bits, int num_vars);

}  // namespace csat::lut

#endif  // CSAT_LUT_MAPPER_H
