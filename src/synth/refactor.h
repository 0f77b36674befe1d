#ifndef CSAT_SYNTH_REFACTOR_H
#define CSAT_SYNTH_REFACTOR_H

/// \file refactor.h
/// Reconvergence-driven cone refactoring (the paper's `refactor` action;
/// ABC's `refactor`, rooted in Brayton's decomposition/factorization).
///
/// For each node whose bounded MFFC has at least two nodes, a
/// reconvergence-driven cut of up to 6 leaves is collapsed into its truth
/// table; the ISOP is algebraically factored and the factored structure
/// replaces the cone when it saves nodes.

#include "aig/aig.h"

namespace csat::synth {

/// One refactoring pass; never returns a larger network.
aig::Aig refactor(const aig::Aig& g);

}  // namespace csat::synth

#endif  // CSAT_SYNTH_REFACTOR_H
