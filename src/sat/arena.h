#ifndef CSAT_SAT_ARENA_H
#define CSAT_SAT_ARENA_H

/// \file arena.h
/// Flat clause arena for the CDCL solver.
///
/// Every clause of three or more literals lives in one contiguous
/// std::uint32_t buffer as a 3-word header followed by its literals, and is
/// addressed by a ClauseRef — the word offset of its header:
///
///   word 0   size (number of literals)
///   word 1   flags (learnt / garbage / moved / protected) | LBD << 8
///   word 2   activity (float, bit-cast) — reused as the forwarding
///            address while a mark-compact collection is in flight
///   word 3…  the literals (Lit::x values)
///
/// Rationale: BCP visits clauses in watch-list order; with a
/// vector<Clause>-of-vector<Lit> store each visit chases two unrelated heap
/// allocations. Here header and literals share one cache line for short
/// clauses and the whole database is sequential memory, so clause visits
/// and full-database scans (conflict analysis, reduction) are prefetchable
/// linear reads. Binary clauses never enter the arena at all — the clause
/// database (sat/clause_db.h) keeps them in its binary lists (the other
/// literal *is* the watcher).
///
/// Clause handles (ClauseArena::Clause) are raw-pointer views and are
/// invalidated by alloc() and compact(); never hold one across either.
///
/// Garbage collection is mark-compact: the clause database marks clauses
/// garbage (mark_garbage), then compact() copies the survivors into fresh
/// storage in address order — preserving allocation order, so ClauseRef
/// comparisons stay meaningful — and leaves a forwarding reference in each
/// old header. The database remaps its watchers and learnt list, and the
/// solver its reasons, through forwarded(); compact_release() finally drops
/// the old buffer.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "cnf/cnf.h"
#include "common/check.h"

namespace csat::sat {

using cnf::Lit;

/// Word offset of a clause header in the arena.
using ClauseRef = std::uint32_t;
/// "No clause": unit/decision reasons, absent conflicts.
inline constexpr ClauseRef kClauseRefUndef = 0xFFFFFFFFu;
/// Tag for binary clauses in reason and conflict slots (the other literal
/// is stored beside the tag): binaries live in the clause database's
/// binary lists and have no arena storage.
inline constexpr ClauseRef kClauseRefBinary = 0xFFFFFFFEu;
/// Tags for the circuit core's implicit clauses of AND gate g = AND(a, b)
/// (sat/circuit_solver.h), the gate node stored beside the tag. Every
/// arena reference lies below kClauseRefGateC3.
inline constexpr ClauseRef kClauseRefGateC1 = 0xFFFFFFFDu;  ///< (!g, a)
inline constexpr ClauseRef kClauseRefGateC2 = 0xFFFFFFFCu;  ///< (!g, b)
inline constexpr ClauseRef kClauseRefGateC3 = 0xFFFFFFFBu;  ///< (g, !a, !b)

/// Owned by exactly one ClauseDb and confined to its solver's thread: no
/// internal locking anywhere. All storage is owned by the arena; Clause
/// handles and lits() spans are non-owning views into it.
class ClauseArena {
 public:
  static constexpr std::uint32_t kHeaderWords = 3;
  static constexpr std::uint32_t kMaxLbd = (1u << 24) - 1;

  /// Mutable view of one clause. Invalidated by alloc() and compact().
  class Clause {
   public:
    explicit Clause(std::uint32_t* base) : base_(base) {}

    /// Number of literals (>= 3 for every arena clause).
    [[nodiscard]] std::uint32_t size() const { return base_[kSizeWord]; }
    [[nodiscard]] Lit& operator[](std::uint32_t i) {
      CSAT_DCHECK(i < size());
      return lits()[i];
    }
    /// Non-owning view of the literals; same lifetime rules as the handle.
    [[nodiscard]] std::span<Lit> lits() {
      return {reinterpret_cast<Lit*>(base_ + kHeaderWords), size()};
    }

    /// Learnt (deletable) vs problem (permanent) clause.
    [[nodiscard]] bool learnt() const { return (flags() & kLearntFlag) != 0; }
    /// Marked dead; storage is reclaimed by the next compact().
    [[nodiscard]] bool garbage() const { return (flags() & kGarbageFlag) != 0; }
    /// Protected learnt clauses (glue tier) are exempt from reduction.
    [[nodiscard]] bool protect() const { return (flags() & kProtectFlag) != 0; }
    void set_protect() { base_[kFlagsWord] |= kProtectFlag; }

    /// Literal-block distance recorded at learn/attach time (capped at
    /// kMaxLbd); lower = more valuable.
    [[nodiscard]] std::uint32_t lbd() const { return flags() >> kLbdShift; }

    /// Bump-decayed usefulness score driving ClauseDb::reduce() ranking.
    [[nodiscard]] float activity() const {
      return std::bit_cast<float>(base_[kActivityWord]);
    }
    void set_activity(float a) {
      base_[kActivityWord] = std::bit_cast<std::uint32_t>(a);
    }

   private:
    friend class ClauseArena;
    [[nodiscard]] std::uint32_t flags() const { return base_[kFlagsWord]; }

    std::uint32_t* base_;
  };

  /// Appends a clause (>= 3 literals; binaries never enter the arena) and
  /// returns its reference. Invalidates outstanding Clause handles.
  ClauseRef alloc(std::span<const Lit> lits, bool learnt, std::uint32_t lbd);

  [[nodiscard]] Clause operator[](ClauseRef ref) {
    CSAT_DCHECK(ref + kHeaderWords <= data_.size());
    return Clause(data_.data() + ref);
  }

  /// Flags a clause as garbage and accounts its words for the next
  /// compaction. The caller must already have dropped its watchers.
  void mark_garbage(ClauseRef ref);

  /// Calls \p fn(ClauseRef) for every clause not marked garbage, in
  /// allocation order. \p fn must not alloc() or compact().
  template <typename Fn>
  void for_each_clause(Fn&& fn) {
    std::size_t offset = 0;
    while (offset < data_.size()) {
      if ((data_[offset + kFlagsWord] & kGarbageFlag) == 0)
        fn(static_cast<ClauseRef>(offset));
      offset += kHeaderWords + data_[offset + kSizeWord];
    }
  }

  /// Total arena extent in 32-bit words (headers + literals, live + dead).
  [[nodiscard]] std::size_t size_words() const { return data_.size(); }
  /// Heap footprint in bytes: buffer capacities, including the old storage
  /// held alive mid-collection — the arena's contribution to the memory
  /// budgets of sat::Limits.
  [[nodiscard]] std::size_t bytes() const {
    return (data_.capacity() + old_.capacity()) * sizeof(std::uint32_t);
  }
  /// Words occupied by garbage clauses — the payoff of the next compact().
  [[nodiscard]] std::size_t garbage_words() const { return garbage_words_; }

  /// Mark-compact step 1: moves every non-garbage clause into fresh storage
  /// (in address order) and stores a forwarding reference in the old
  /// header. Old refs stay resolvable through forwarded() until
  /// compact_release().
  void compact();
  /// Resolves a pre-compaction reference to its new location. Only valid
  /// between compact() and compact_release(), and only for live clauses.
  [[nodiscard]] ClauseRef forwarded(ClauseRef ref) const;
  /// Mark-compact step 3: frees the pre-compaction storage.
  void compact_release();

 private:
  static constexpr std::uint32_t kSizeWord = 0;
  static constexpr std::uint32_t kFlagsWord = 1;
  static constexpr std::uint32_t kActivityWord = 2;
  static constexpr std::uint32_t kLearntFlag = 1u << 0;
  static constexpr std::uint32_t kGarbageFlag = 1u << 1;
  static constexpr std::uint32_t kMovedFlag = 1u << 2;
  static constexpr std::uint32_t kProtectFlag = 1u << 3;
  static constexpr std::uint32_t kLbdShift = 8;

  std::vector<std::uint32_t> data_;
  /// Pre-compaction storage, holding forwarding addresses mid-collection.
  std::vector<std::uint32_t> old_;
  std::size_t garbage_words_ = 0;
};

}  // namespace csat::sat

#endif  // CSAT_SAT_ARENA_H
