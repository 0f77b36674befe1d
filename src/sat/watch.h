#ifndef CSAT_SAT_WATCH_H
#define CSAT_SAT_WATCH_H

/// \file watch.h
/// Flat per-literal occurrence lists for the CDCL propagation engine.
///
/// FlatLists<T> packs every literal's list into one contiguous buffer,
/// addressed through a per-list {offset, size, capacity} header — the
/// watcher-side twin of the flat clause arena (sat/arena.h). BCP walks a
/// literal's watchers as one sequential slab instead of chasing a
/// vector<vector<T>>'s per-literal heap allocation, and the whole watcher
/// database is a single prefetchable allocation.
///
/// Growth is slab relocation: a full list doubles its capacity by moving to
/// the end of the buffer, abandoning its old slab (accounted as dead
/// slots). The clause database (sat/clause_db.h) runs compact() on its
/// reduction cadence, so dead slabs are reclaimed on the same cadence as
/// dead clauses and the lists stay defragmented in literal order.
///
/// reserve_lists() lays every list out back-to-back with caller-supplied
/// capacities (the CNF's literal-occurrence histogram), so attaching the
/// input formula — and the first search descent over it — pays no
/// growth relocation at all.
///
/// Pointer stability: push() may reallocate the underlying buffer or
/// relocate the list it targets; any raw pointer or span obtained before a
/// push is invalid after it. Pushing to list A never moves list B's
/// *offset*, so hot loops cache {offset, size} and re-derive the base
/// pointer after a push (ClauseDb::propagate does exactly this).
///
/// Owned by one clause database, confined to its thread; no internal
/// locking.

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace csat::sat {

template <typename T>
class FlatLists {
 public:
  struct Head {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  /// Grows the header table to at least \p n lists (never shrinks).
  void ensure_lists(std::size_t n) {
    if (heads_.size() < n) heads_.resize(n);
  }
  [[nodiscard]] std::size_t num_lists() const { return heads_.size(); }

  [[nodiscard]] std::span<T> operator[](std::size_t i) {
    const Head& h = heads_[i];
    return {data_.data() + h.offset, h.size};
  }

  /// Hot-loop accessors: propagate caches offset/size and re-derives the
  /// base pointer after any push (see the pointer-stability note above).
  [[nodiscard]] const Head& head(std::size_t i) const { return heads_[i]; }
  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }

  void push(std::size_t i, const T& v) {
    Head& h = heads_[i];
    if (h.size == h.capacity) grow(h);
    data_[h.offset + h.size++] = v;
  }

  /// Truncates list \p i to its first \p n entries (the caller compacted
  /// survivors in place). The freed tail stays part of this list's slab and
  /// serves future pushes — it is not dead space.
  void set_size(std::size_t i, std::uint32_t n) {
    CSAT_DCHECK(n <= heads_[i].size);
    heads_[i].size = n;
  }

  /// Lays out empty lists back-to-back with capacity counts[i]. Only legal
  /// while no list holds data (a fresh solver); the caller feeds the
  /// formula's literal-occurrence histogram so the initial attach storm
  /// never relocates a slab.
  void reserve_lists(std::span<const std::uint32_t> counts) {
    CSAT_DCHECK(data_.empty());
    ensure_lists(counts.size());
    std::size_t total = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      heads_[i] = {static_cast<std::uint32_t>(total), 0, counts[i]};
      total += counts[i];
    }
    data_.resize(total);
  }

  /// Mark-compact: rebuilds the buffer with every list repacked in list
  /// order, dropping dead slabs. Each non-empty list keeps one eighth of
  /// its size (min 2) as slack — capacity == size would make the very next
  /// push to every list relocate it again, a measurable post-GC relocation
  /// storm under watcher migration. Invalidates all outstanding
  /// pointers/spans. O(live entries); the scratch buffer is kept across
  /// calls.
  void compact() {
    compact([](const T&) { return true; });
  }

  /// Mark-compact variant that additionally reorders each list while
  /// repacking: entries satisfying \p pred come first, order preserved
  /// within each class (a stable partition, so determinism is a pure
  /// function of solver state). The clause database passes "blocker literal
  /// currently satisfied": a watcher whose blocker is true is skipped by
  /// BCP without touching its clause, so fronting those entries lets the
  /// post-GC descent burn through the cheap skips sequentially before the
  /// cache-missing clause visits begin. Same invalidation rules as
  /// compact(); \p pred is called up to twice per live entry and must not
  /// touch the lists.
  template <typename Pred>
  void compact(Pred&& pred) {
    scratch_.clear();
    scratch_.reserve(data_.size());
    for (Head& h : heads_) {
      const auto new_off = static_cast<std::uint32_t>(scratch_.size());
      for (std::uint32_t k = 0; k < h.size; ++k)
        if (pred(data_[h.offset + k])) scratch_.push_back(data_[h.offset + k]);
      for (std::uint32_t k = 0; k < h.size; ++k)
        if (!pred(data_[h.offset + k])) scratch_.push_back(data_[h.offset + k]);
      h.offset = new_off;
      h.capacity = h.size == 0 ? 0 : h.size + (h.size >> 3) + 2;
      scratch_.resize(new_off + h.capacity);
    }
    data_.swap(scratch_);
    dead_slots_ = 0;
  }

  /// Slots stranded in abandoned slabs by growth relocation — the payoff of
  /// the next compact(). Excess capacity inside live slabs is not counted
  /// (it serves future pushes).
  [[nodiscard]] std::size_t dead_slots() const { return dead_slots_; }
  /// Total buffer extent in slots (live + free capacity + dead).
  [[nodiscard]] std::size_t total_slots() const { return data_.size(); }
  /// Current heap footprint of the lists (buffer + header table).
  [[nodiscard]] std::size_t bytes() const {
    return data_.capacity() * sizeof(T) + heads_.capacity() * sizeof(Head);
  }

  /// Slab relocations paid by push() since construction — the cost
  /// reserve_lists() exists to avoid (Stats::watcher_relocations).
  [[nodiscard]] std::uint64_t relocations() const { return relocations_; }

 private:
  void grow(Head& h) {
    const std::uint32_t new_cap = h.capacity == 0 ? 4 : h.capacity * 2;
    const auto new_off = static_cast<std::uint32_t>(data_.size());
    data_.resize(data_.size() + new_cap);
    for (std::uint32_t k = 0; k < h.size; ++k)
      data_[new_off + k] = data_[h.offset + k];
    dead_slots_ += h.capacity;
    ++relocations_;
    h.offset = new_off;
    h.capacity = new_cap;
  }

  std::vector<Head> heads_;
  std::vector<T> data_;
  std::vector<T> scratch_;  // compact() double buffer, kept across calls
  std::size_t dead_slots_ = 0;
  std::uint64_t relocations_ = 0;
};

}  // namespace csat::sat

#endif  // CSAT_SAT_WATCH_H
