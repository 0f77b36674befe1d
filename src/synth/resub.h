#ifndef CSAT_SYNTH_RESUB_H
#define CSAT_SYNTH_RESUB_H

/// \file resub.h
/// Window-based resubstitution (the paper's `resub` action; Sato et al. /
/// ABC's `resub`).
///
/// For each node, a reconvergence-driven window of up to 6 leaves is
/// computed; up to 48 divisor candidates (existing nodes expressible over
/// the window leaves, outside the node's MFFC, below its level) are
/// simulated to exact window truth tables. The node is re-expressed as:
///   0-resub: an existing divisor (possibly complemented),
///   1-resub: a single AND/OR of two divisors (any input phases),
///   2-resub: a two-gate combination over three of the first 12 divisors.
/// Gain is freed-MFFC minus new nodes; replacements commit via one rebuild.

#include "aig/aig.h"

namespace csat::synth {

/// One resubstitution pass; never returns a larger network.
aig::Aig resub(const aig::Aig& g);

}  // namespace csat::synth

#endif  // CSAT_SYNTH_RESUB_H
