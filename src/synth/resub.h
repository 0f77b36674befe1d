#ifndef CSAT_SYNTH_RESUB_H
#define CSAT_SYNTH_RESUB_H

/// \file resub.h
/// Window-based resubstitution (the paper's `resub` action; Sato et al. /
/// ABC's `resub`).
///
/// For each node, a reconvergence-driven window is computed; divisor
/// candidates (existing nodes expressible over the window leaves, outside
/// the node's MFFC, below its level) are simulated to exact window truth
/// tables. The node is re-expressed as:
///   0-resub: an existing divisor (possibly complemented),
///   1-resub: a single AND/OR of two divisors (any input phases),
///   2-resub: a two-gate combination over three divisors (optional).
/// Gain is freed-MFFC minus new nodes; replacements commit via one rebuild.

#include "aig/aig.h"

namespace csat::synth {

struct ResubParams {
  /// Window size, 2..6 (every window function fits in one 64-bit word).
  int max_leaves = 6;
  int max_divisors = 48;
  /// Divisor-count cap for the cubic 2-resub stage (0 disables 2-resub).
  int max_divisors2 = 12;
  bool allow_zero_gain = false;
};

/// One resubstitution pass; never returns a larger network.
aig::Aig resub(const aig::Aig& g, const ResubParams& params = {});

}  // namespace csat::synth

#endif  // CSAT_SYNTH_RESUB_H
