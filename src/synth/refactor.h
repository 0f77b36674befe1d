#ifndef CSAT_SYNTH_REFACTOR_H
#define CSAT_SYNTH_REFACTOR_H

/// \file refactor.h
/// Reconvergence-driven cone refactoring (the paper's `refactor` action;
/// ABC's `refactor`, rooted in Brayton's decomposition/factorization).
///
/// For each node, a reconvergence-driven cut of up to `max_leaves` leaves is
/// collapsed into its truth table; the ISOP is algebraically factored and
/// the factored structure replaces the cone when it saves nodes.

#include "aig/aig.h"

namespace csat::synth {

struct RefactorParams {
  /// Window size, 2..6 (every cone function fits in one 64-bit word).
  int max_leaves = 6;
  bool allow_zero_gain = false;
  /// Only roots whose bounded MFFC has at least this many nodes are tried
  /// (tiny cones cannot amortize the factored structure).
  int min_mffc = 2;
};

/// One refactoring pass; never returns a larger network.
aig::Aig refactor(const aig::Aig& g, const RefactorParams& params = {});

}  // namespace csat::synth

#endif  // CSAT_SYNTH_REFACTOR_H
