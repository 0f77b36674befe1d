#ifndef CSAT_SYNTH_REPLACE_H
#define CSAT_SYNTH_REPLACE_H

/// \file replace.h
/// The commit machinery shared by all restructuring passes.
///
/// Passes (rewrite / refactor / resub) analyse a *frozen* AIG and produce a
/// set of Replacement records: "node n is functionally f(leaves)". The
/// records are applied in one PO-driven strashed rebuild — dead cones vanish
/// and sharing is rediscovered automatically, so the frozen network's
/// invariants are never at risk mid-pass (see aig.h for why the Aig is
/// append-only).
///
/// Acyclicity argument: every replacement's leaves lie strictly below the
/// replaced node in the source graph's level order, so chains of replacement
/// references strictly decrease level and the rebuild recursion terminates.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "aig/aig.h"

namespace csat::synth {

struct Replacement {
  /// Node ids the new structure reads (variable i of func = leaves[i]);
  /// at most 6.
  std::vector<std::uint32_t> leaves;
  /// New local function of the node's positive phase: the low
  /// 2^leaves.size() bits, minterm m at bit m.
  std::uint64_t func = 0;
};

/// Dry-run node count: how many genuinely new AND nodes would building
/// `func(leaves)` (the recorded structure of the <= 6-input table \p func)
/// add to \p g. Structure sharing with existing logic is discovered through
/// the strash table.
int count_new_nodes(const aig::Aig& g, std::uint64_t func,
                    std::span<const std::uint32_t> leaves);

/// MFFC size of \p root with the deref walk stopped at \p boundary nodes
/// (they stay alive as inputs of the replacement). This is the number of
/// nodes actually freed when root is replaced by a structure over boundary.
int mffc_size_bounded(const aig::Aig& g, std::uint32_t root,
                      std::span<const std::uint32_t> boundary);

/// Rebuilds \p g with all \p replacements applied; PO-driven, strashed.
aig::Aig apply_replacements(
    const aig::Aig& g,
    const std::unordered_map<std::uint32_t, Replacement>& replacements);

}  // namespace csat::synth

#endif  // CSAT_SYNTH_REPLACE_H
