#ifndef CSAT_SYNTH_REWRITE_H
#define CSAT_SYNTH_REWRITE_H

/// \file rewrite.h
/// DAG-aware cut rewriting (the paper's `rewrite` action; Mishchenko,
/// DAC'06 family).
///
/// For every AND node, each enumerated k-feasible cut (k = cut_size <= 6,
/// default 4) is priced with its function's resynthesized structure
/// (ISOP-factored, phase-optimized, recorded once per function; see
/// resyn.h): gain = nodes freed in the cut-bounded MFFC minus new nodes.
/// The structure's standalone size bounds the new nodes from above; only
/// when that bound cannot decide does a sharing-aware dry run against the
/// frozen network count them exactly. The best strictly-positive-gain
/// candidate per node is committed in a single strashed rebuild.

#include "aig/aig.h"

namespace csat::synth {

struct RewriteParams {
  int cut_size = 4;  ///< 2..6
  int max_cuts = 8;
  /// Accept zero-gain rewrites too (perturbs structure; ABC's `rwz`).
  bool allow_zero_gain = false;
};

/// One rewriting pass. Never returns a larger network: if the rebuilt
/// result regresses (interacting replacements), the input is returned.
aig::Aig rewrite(const aig::Aig& g, const RewriteParams& params = {});

}  // namespace csat::synth

#endif  // CSAT_SYNTH_REWRITE_H
