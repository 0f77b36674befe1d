#ifndef CSAT_RL_EMBEDDING_H
#define CSAT_RL_EMBEDDING_H

/// \file embedding.h
/// Functional-structural instance embedding D(G_0) — the DeepGate2
/// substitute.
///
/// The paper conditions the RL state on a fixed per-instance vector from a
/// pretrained GNN (DeepGate2) that summarizes structural and functional
/// properties of the *initial* netlist. Without a pretrained artefact we
/// compute a deterministic 32-dim signature carrying the same classes of
/// information:
///   [0..7]   level-distribution histogram (8 bins, normalized)
///   [8..11]  fanout histogram (counts 1 / 2 / 3 / >=4, normalized)
///   [12..15] PO simulation statistics under random patterns
///            (mean / min / max / stddev of ones-density — functional bias)
///   [16..27] histogram of internal-node signature densities (12 bins) —
///            the simulation-probability profile DeepGate2's supervision
///            is built on
///   [28..31] global scalars: log-size, log-PIs, depth/size ratio,
///            complemented-edge fraction
/// Deterministic for a fixed seed, so training runs are reproducible.

#include <cstdint>
#include <vector>

#include "aig/aig.h"

namespace csat::rl {

inline constexpr int kEmbeddingDim = 32;

std::vector<double> functional_embedding(const aig::Aig& g,
                                         std::uint64_t seed = 0xD2);

}  // namespace csat::rl

#endif  // CSAT_RL_EMBEDDING_H
