#ifndef CSAT_SYNTH_REWRITE_H
#define CSAT_SYNTH_REWRITE_H

/// \file rewrite.h
/// DAG-aware cut rewriting (the paper's `rewrite` action; Mishchenko,
/// DAC'06 family).
///
/// For every AND node, each enumerated 4-feasible cut (8 priority cuts per
/// node) is priced with its function's resynthesized structure
/// (ISOP-factored, phase-optimized, recorded once per function; see
/// resyn.h): gain = nodes freed in the cut-bounded MFFC minus new nodes.
/// The structure's standalone size bounds the new nodes from above; only
/// when that bound cannot decide does a sharing-aware dry run against the
/// frozen network count them exactly. The best strictly-positive-gain
/// candidate per node is committed in a single strashed rebuild.

#include "aig/aig.h"

namespace csat::synth {

/// One rewriting pass. Never returns a larger network: if the rebuilt
/// result regresses (interacting replacements), the input is returned.
aig::Aig rewrite(const aig::Aig& g);

}  // namespace csat::synth

#endif  // CSAT_SYNTH_REWRITE_H
