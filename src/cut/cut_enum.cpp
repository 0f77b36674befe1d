#include "cut/cut_enum.h"

#include <algorithm>

namespace csat::cut {

namespace {

/// Exchanges variables i < j of a 64-bit table: the minterms with x_i = 1,
/// x_j = 0 trade places with those that have x_i = 0, x_j = 1.
std::uint64_t swap_vars(std::uint64_t t, int i, int j) {
  const int shift = (1 << j) - (1 << i);
  const std::uint64_t low = tt::kVarWord[i] & ~tt::kVarWord[j];
  return (t & ~(low | (low << shift))) | ((t & low) << shift) |
         ((t >> shift) & low);
}

std::uint32_t signature_of(std::span<const std::uint32_t> leaves) {
  std::uint32_t s = 0;
  for (std::uint32_t l : leaves) s |= 1u << (l & 31);
  return s;
}

/// Writes the sorted union of the leaves of \p a and \p b into \p out;
/// returns false when the union exceeds k leaves. pos_a[i] / pos_b[j]
/// receive the position of a's i-th / b's j-th leaf in the union.
bool merge_leaves(const Cut& a, const Cut& b, int k, Cut& out, int* pos_a,
                  int* pos_b) {
  const int na = a.num_leaves;
  const int nb = b.num_leaves;
  int i = 0, j = 0, n = 0;
  while (i < na || j < nb) {
    if (n == k) return false;
    std::uint32_t next;
    if (j >= nb || (i < na && a.leaf_ids[i] <= b.leaf_ids[j])) {
      next = a.leaf_ids[i];
      pos_a[i++] = n;
      if (j < nb && b.leaf_ids[j] == next) pos_b[j++] = n;
    } else {
      next = b.leaf_ids[j];
      pos_b[j++] = n;
    }
    out.leaf_ids[n++] = next;
  }
  out.num_leaves = static_cast<std::uint8_t>(n);
  return true;
}

Cut unit_cut(std::uint32_t n) {
  Cut unit;
  unit.leaf_ids[0] = n;
  unit.num_leaves = 1;
  unit.signature = signature_of(unit.leaves());
  unit.func = 0x2;  // x0 over one variable
  return unit;
}

/// Stable sort by leaf count (smaller first). Insertion sort: sets hold at
/// most max_cuts + 1 cuts, and unlike std::stable_sort it needs no buffer.
void sort_by_size(std::vector<Cut>& cuts) {
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    const Cut x = cuts[i];
    std::size_t j = i;
    for (; j > 0 && cuts[j - 1].num_leaves > x.num_leaves; --j)
      cuts[j] = cuts[j - 1];
    cuts[j] = x;
  }
}

}  // namespace

bool Cut::dominates(const Cut& other) const {
  if ((signature & ~other.signature) != 0) return false;
  if (num_leaves > other.num_leaves) return false;
  const auto mine = leaves();
  const auto theirs = other.leaves();
  return std::includes(theirs.begin(), theirs.end(), mine.begin(), mine.end());
}

std::uint64_t stretch_tt(std::uint64_t func, std::span<const int> pos) {
  const int n = static_cast<int>(pos.size());
  CSAT_DCHECK(n <= kMaxCutSize);
  // Replicate the 2^n-bit table over the word: variables n..5 become vacuous
  // and can then be swapped with real ones.
  for (int v = n; v < kMaxCutSize; ++v) func |= func << (1u << v);
  // Highest variable first: each target position is vacuous when reached.
  for (int i = n - 1; i >= 0; --i) {
    CSAT_DCHECK(pos[i] >= i && pos[i] < kMaxCutSize);
    if (pos[i] != i) func = swap_vars(func, i, pos[i]);
  }
  return func;
}

CutEnumerator::CutEnumerator(const aig::Aig& g, const CutParams& params)
    : params_(params), cuts_(g.num_nodes()) {
  CSAT_CHECK(params_.cut_size >= 2 && params_.cut_size <= kMaxCutSize);
  for (std::uint32_t n = 0; n < g.num_nodes(); ++n) {
    if (g.is_and(n)) {
      merge_node(g, n);
    } else {
      cuts_[n].push_back(unit_cut(n));
    }
    total_cuts_ += cuts_[n].size();
  }
}

void CutEnumerator::merge_node(const aig::Aig& g, std::uint32_t n) {
  const aig::Lit f0 = g.fanin0(n);
  const aig::Lit f1 = g.fanin1(n);
  const auto& set0 = cuts_[f0.node()];
  const auto& set1 = cuts_[f1.node()];
  auto& out = cuts_[n];
  out.reserve(static_cast<std::size_t>(params_.max_cuts) + 2);

  int pos0[kMaxCutSize] = {};
  int pos1[kMaxCutSize] = {};
  for (const Cut& c0 : set0) {
    for (const Cut& c1 : set1) {
      if (__builtin_popcount(c0.signature | c1.signature) >
          params_.cut_size + 8)
        continue;  // cheap reject before the real merge
      Cut cand;
      if (!merge_leaves(c0, c1, params_.cut_size, cand, pos0, pos1)) continue;
      cand.signature = signature_of(cand.leaves());

      // Dominance filtering against the cuts already kept.
      bool dominated = false;
      for (const Cut& kept : out) {
        if (kept.dominates(cand)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;

      std::uint64_t t0 = stretch_tt(c0.func, {pos0, c0.num_leaves});
      if (f0.is_compl()) t0 = ~t0;
      std::uint64_t t1 = stretch_tt(c1.func, {pos1, c1.num_leaves});
      if (f1.is_compl()) t1 = ~t1;
      cand.func = t0 & t1 & tt::word_mask(cand.size());

      // Remove previously kept cuts that the new one dominates.
      std::erase_if(out, [&](const Cut& kept) { return cand.dominates(kept); });
      out.push_back(cand);
      if (static_cast<int>(out.size()) > params_.max_cuts) {
        // Priority: prefer smaller cuts (cheaper to price and to map).
        sort_by_size(out);
        out.pop_back();
      }
    }
  }

  out.push_back(unit_cut(n));
}

}  // namespace csat::cut
