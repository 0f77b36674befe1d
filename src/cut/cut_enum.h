#ifndef CSAT_CUT_CUT_ENUM_H
#define CSAT_CUT_CUT_ENUM_H

/// \file cut_enum.h
/// K-feasible cut enumeration with truth tables (priority cuts).
///
/// A cut of node n is a set of nodes (leaves) such that every path from n to
/// the PIs crosses a leaf; a cut is k-feasible when it has at most k leaves.
/// Cuts drive both DAG-aware rewriting (4-cuts, Section III-B action
/// `rewrite`) and LUT mapping (4-cuts, Section III-C). Per node we keep a
/// bounded set of non-dominated cuts ("priority cuts", Mishchenko et al.),
/// each annotated with its local function, which is what the cost-customized
/// mapper prices via tt::branching_cost.
///
/// Cuts have at most kMaxCutSize = tt::kWordVars = 6 leaves, so a cut is a
/// fixed-size value: the leaves live in an inline array and the function in
/// one 64-bit word. Enumeration allocates nothing per candidate.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.h"
#include "tt/truth_table.h"

namespace csat::cut {

/// Largest supported cut: every cut function fits in one 64-bit word.
inline constexpr int kMaxCutSize = tt::kWordVars;

struct Cut {
  /// Leaf ids; the first num_leaves entries are valid and sorted.
  std::array<std::uint32_t, kMaxCutSize> leaf_ids{};
  std::uint8_t num_leaves = 0;
  /// 32-bit Bloom signature of the leaves (subset pre-filter).
  std::uint32_t signature = 0;
  /// Function of the (positive phase of the) root over the leaves, leaf i =
  /// variable i: minterm m at bit m, bits at and above 2^size() are zero.
  std::uint64_t func = 0;

  [[nodiscard]] int size() const { return num_leaves; }

  /// Sorted node ids of the leaves.
  [[nodiscard]] std::span<const std::uint32_t> leaves() const {
    return {leaf_ids.data(), num_leaves};
  }

  /// True if every leaf of this cut also appears in \p other (i.e. this cut
  /// dominates other and other is redundant).
  [[nodiscard]] bool dominates(const Cut& other) const;
};

struct CutParams {
  int cut_size = 4;    ///< k: maximum leaves per cut, 2..kMaxCutSize
  int max_cuts = 8;    ///< priority-cut bound per node (excl. trivial cut)
};

/// Enumerates cuts for every node of \p g. Cut functions are always
/// computed. Every node's set ends with its unit cut {n}: merging the
/// fanins' unit cuts is what yields the {fanin0, fanin1} base cut at every
/// AND node.
class CutEnumerator {
 public:
  CutEnumerator(const aig::Aig& g, const CutParams& params);

  /// Cuts of node \p n (PIs and constant get exactly the trivial cut).
  [[nodiscard]] const std::vector<Cut>& cuts(std::uint32_t n) const {
    return cuts_[n];
  }

  [[nodiscard]] const CutParams& params() const { return params_; }
  [[nodiscard]] std::size_t total_cuts() const { return total_cuts_; }

 private:
  void merge_node(const aig::Aig& g, std::uint32_t n);

  CutParams params_;
  std::vector<std::vector<Cut>> cuts_;
  std::size_t total_cuts_ = 0;
};

/// Re-expresses \p func, a table over `pos.size()` variables, over a larger
/// variable set in which variable i moves to position pos[i]. pos must be
/// strictly increasing with pos.back() < kMaxCutSize. The result ranges over
/// all six variables (the ones no variable moved to are vacuous); mask it to
/// the target arity to get the canonical table.
std::uint64_t stretch_tt(std::uint64_t func, std::span<const int> pos);

}  // namespace csat::cut

#endif  // CSAT_CUT_CUT_ENUM_H
