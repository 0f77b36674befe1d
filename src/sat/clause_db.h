#ifndef CSAT_SAT_CLAUSE_DB_H
#define CSAT_SAT_CLAUSE_DB_H

/// \file clause_db.h
/// The clause database, search budget and restart policy of both CDCL
/// cores (sat::Solver over CNF variables, sat::CircuitSolver over AIG
/// nodes).
///
/// ClauseDb owns every stored clause and watcher: the flat arena
/// (sat/arena.h) for clauses of >= 3 literals, its learnt subset, and the
/// flat per-literal lists (sat/watch.h) of long-clause watchers and of
/// binary clauses (each entry the other literal: the watcher *is* the
/// clause), indexed by Lit.x of the falsified literal. On them it runs the
/// half of CDCL that does not depend on the propagation domain: attach,
/// the long-clause visit of BCP, clause activity and LBD, learnt-DB
/// reduction, mark-compact GC with watcher forwarding, the watch-invariant
/// walker and the byte gauge.
///
/// The CDCL kernel (sat/cdcl.h) keeps the assignment (a literal-indexed
/// Value array, per-variable reasons, the trail) and passes it in. A reason
/// is any type with a `cref` field and an is_clause() test (an arena
/// clause, not a decision, binary or gate reason; sat::Reason in practice),
/// so BCP and GC make no virtual call. Every operation is deterministic:
/// watch-list order is search state, so removals preserve it and the
/// watcher repack is a stable partition. Confined to the owning solver's
/// thread; no internal locking.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/luby.h"
#include "common/stopwatch.h"
#include "sat/arena.h"
#include "sat/watch.h"

namespace csat::sat {

/// Per-solve() search budget of sat::Solver and sat::CircuitSolver alike;
/// defaults mean "unlimited". Conflicts and decisions count from the
/// solver's counters at solve() entry, so a solve() after a budget stop
/// gets the whole budget again. Budgets are checked at conflict/restart
/// checkpoints, so overshoot is bounded by one propagation round.
/// Exhaustion yields Status::kUnknown with the solver state intact — a
/// later solve() resumes where the search left off.
struct Limits {
  std::uint64_t max_conflicts = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_decisions = std::numeric_limits<std::uint64_t>::max();
  double max_seconds = std::numeric_limits<double>::infinity();  ///< wall-clock
  /// External cancellation (portfolio first-finisher-wins, server
  /// shutdown): when non-null and set, solve() backtracks to level 0 and
  /// returns Status::kUnknown at the next checkpoint. The solver only reads
  /// through this pointer; the clause database and stats stay valid and a
  /// later solve() may resume.
  const std::atomic<bool>* terminate = nullptr;
  /// Memory budgets over the solver's memory_bytes() (0 = unlimited),
  /// checked every 64 conflicts like the other budgets. Crossing the soft
  /// cap forces a learnt-DB reduction (rate-limited so a footprint that
  /// will not shrink cannot thrash); crossing the hard cap stops the search
  /// with Status::kUnknown and memout_stops incremented — instead of dying
  /// inside operator new. The solver stays valid and resumable.
  std::uint64_t soft_memory_bytes = 0;
  std::uint64_t hard_memory_bytes = 0;
};

/// One solve()'s view of its Limits, built at solve() entry.
class SearchBudget {
 public:
  /// Budget ends saturate at "unlimited": ~x is the headroom above x.
  SearchBudget(const Limits& limits, std::uint64_t conflicts,
               std::uint64_t decisions)
      : limits_(limits),
        conflict_end_(conflicts + std::min(limits.max_conflicts, ~conflicts)),
        decision_end_(decisions + std::min(limits.max_decisions, ~decisions)),
        next_mem_check_(conflicts) {}

  /// Limits::terminate is set (checked every search iteration, so a
  /// cancelled solve stops inside long conflict bursts too).
  [[nodiscard]] bool terminated() const {
    return limits_.terminate != nullptr &&
           limits_.terminate->load(std::memory_order_relaxed);
  }

  /// The conflict, decision or wall-clock budget of this solve() is spent.
  [[nodiscard]] bool spent(std::uint64_t conflicts,
                           std::uint64_t decisions) const {
    return conflicts >= conflict_end_ || decisions >= decision_end_ ||
           (std::isfinite(limits_.max_seconds) &&
            watch_.seconds() > limits_.max_seconds);
  }

  /// Memory caps, sampled every 64 conflicts plus once up front, so a hard
  /// cap below even the formula's own footprint stops the first checkpoint
  /// instead of never. Over the soft cap, calls reduce() and counts
  /// stats.memory_reductions, at most once per 512 conflicts; over the hard
  /// cap, counts stats.memout_stops and returns true.
  template <typename Counters, typename Bytes, typename Reduce>
  bool memout(Counters& stats, Bytes&& bytes, Reduce&& reduce) {
    if ((limits_.soft_memory_bytes == 0 && limits_.hard_memory_bytes == 0) ||
        stats.conflicts < next_mem_check_)
      return false;
    next_mem_check_ = stats.conflicts + 64;
    std::uint64_t now = bytes();
    if (limits_.soft_memory_bytes != 0 && now > limits_.soft_memory_bytes &&
        stats.conflicts >= soft_reduce_at_) {
      soft_reduce_at_ = stats.conflicts + 512;
      reduce();
      ++stats.memory_reductions;
      now = bytes();
    }
    if (limits_.hard_memory_bytes != 0 && now > limits_.hard_memory_bytes) {
      ++stats.memout_stops;
      return true;
    }
    return false;
  }

 private:
  const Limits& limits_;
  Stopwatch watch_;
  std::uint64_t conflict_end_;
  std::uint64_t decision_end_;
  std::uint64_t next_mem_check_;
  std::uint64_t soft_reduce_at_ = 0;
};

/// Restart settings of sat::SolverConfig and sat::CircuitSolverConfig
/// alike.
struct RestartConfig {
  enum class Kind { kLuby, kEma };

  Kind kind = Kind::kLuby;
  /// Luby: restart after luby(i) * luby_unit conflicts.
  std::uint32_t luby_unit = 64;
};

/// The restart schedule of both cores: Luby, or Glucose-EMA over the LBDs
/// of learnt clauses. begin() at every solve() entry starts a new Luby
/// sequence and keeps the EMA averages; on_conflict() after each learnt
/// clause; due() at the propagation fixpoint; restarted() when the core
/// restarts.
class RestartPolicy {
 public:
  /// EMA: a restart is due when the fast LBD average exceeds kEmaMargin
  /// times the slow one, at least kEmaMinConflicts after the last restart.
  static constexpr double kEmaFastAlpha = 1.0 / 32.0;
  static constexpr double kEmaSlowAlpha = 1.0 / 16384.0;
  static constexpr double kEmaMargin = 1.25;
  static constexpr std::uint32_t kEmaMinConflicts = 50;

  explicit RestartPolicy(const RestartConfig& config) : config_(config) {}

  void begin(std::uint64_t conflicts) {
    conflicts_at_restart_ = conflicts;
    luby_index_ = 0;
    next_luby();
  }

  void on_conflict(std::uint32_t lbd) {
    const auto x = static_cast<double>(lbd);
    ema_fast_ += kEmaFastAlpha * (x - ema_fast_);
    ema_slow_ += kEmaSlowAlpha * (x - ema_slow_);
  }

  [[nodiscard]] bool due(std::uint64_t conflicts) const {
    const std::uint64_t since = conflicts - conflicts_at_restart_;
    if (config_.kind == RestartConfig::Kind::kLuby)
      return since >= luby_budget_;
    return since >= kEmaMinConflicts && ema_fast_ > kEmaMargin * ema_slow_;
  }

  /// Starts the next Luby interval, or zeroes the fast EMA average to
  /// forgive the spike that triggered the restart.
  void restarted(std::uint64_t conflicts) {
    conflicts_at_restart_ = conflicts;
    if (config_.kind == RestartConfig::Kind::kLuby)
      next_luby();
    else
      ema_fast_ = 0.0;
  }

 private:
  void next_luby() { luby_budget_ = luby(++luby_index_) * config_.luby_unit; }

  RestartConfig config_;
  std::uint64_t conflicts_at_restart_ = 0;
  std::uint64_t luby_index_ = 0;
  std::uint64_t luby_budget_ = 0;
  double ema_fast_ = 0.0;
  double ema_slow_ = 0.0;
};

class ClauseDb {
 public:
  /// Truth values of the cores' literal-indexed assignment arrays: one
  /// byte load per literal, the hottest read of BCP.
  enum Value : std::uint8_t { kFalse = 0, kTrue = 1, kUnknown = 2 };

  /// Long-clause watch-list entry: the blocker is some literal of the
  /// clause, and visits where it is already true skip the arena entirely.
  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  /// Clause-activity decay per conflict.
  static constexpr double kClauseDecay = 0.999;
  /// Learnt clauses with LBD <= kGlueKeep are never deleted.
  static constexpr std::uint32_t kGlueKeep = 2;

  /// Grows the watch tables and the LBD stamps to cover variables
  /// [0, num_vars).
  void ensure_vars(std::size_t num_vars);

  [[nodiscard]] ClauseArena& arena() { return arena_; }
  [[nodiscard]] FlatLists<Watcher>& watches() { return watches_; }
  [[nodiscard]] FlatLists<Lit>& binaries() { return binaries_; }

  /// Attaches a clause of >= 2 literals, watched on lits[0] and lits[1]. A
  /// binary goes to the binary lists (permanent: it has no storage to
  /// collect) and returns kClauseRefBinary; a longer clause goes to the
  /// arena. A learnt arena clause starts at the current activity increment
  /// and joins the learnt list; one with LBD <= kGlueKeep is protected
  /// from reduction.
  ClauseRef attach(std::span<const Lit> lits, bool learnt, std::uint32_t lbd);

  /// Starts loading \p p's long watch list, the next BCP read.
  void prefetch(Lit p) const {
    CSAT_PREFETCH(watches_.data() + watches_.head(p.x).offset);
  }

  /// The long-clause half of BCP for literal \p p, just made true: visits
  /// every watcher of !p, keeping it (blocker or other watch true), moving
  /// it to a non-false literal of its clause, or calling
  /// assign(first, cref) when the clause became unit on its first literal.
  /// Returns the clause all of whose literals are false, or
  /// kClauseRefUndef; a conflict keeps the unvisited watchers in place.
  template <typename Assign>
  ClauseRef propagate(Lit p, const std::uint8_t* value, Assign&& assign) {
    const Lit not_p = !p;
    // Cache offset/size and re-derive the base pointer after any push:
    // moving a watcher to another list can reallocate the buffer, but
    // never moves *this* list's slab (the new watch literal is distinct
    // from !p, which sits in watch position 1 by then).
    const std::uint32_t off = watches_.head(p.x).offset;
    const std::uint32_t n = watches_.head(p.x).size;
    Watcher* ws = watches_.data() + off;
    std::uint32_t keep = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const Watcher w = ws[i];
      if (value[w.blocker.x] == kTrue) {
        ws[keep++] = w;
        continue;
      }
      // Deliberately no prefetch of the next watcher's clause header here:
      // most visits end at the blocker test above without touching clause
      // memory, and prefetching every header defeats that (measured -10-20%
      // on the adder/pigeonhole families).
      ClauseArena::Clause c = arena_[w.cref];
      // Normalize so the false literal (!p) sits at position 1.
      if (c[0] == not_p) std::swap(c[0], c[1]);
      CSAT_DCHECK(c[1] == not_p);
      const Lit first = c[0];
      if (first != w.blocker && value[first.x] == kTrue) {
        ws[keep++] = {w.cref, first};
        continue;
      }
      bool moved = false;
      const std::uint32_t size = c.size();
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value[c[k].x] != kFalse) {
          std::swap(c[1], c[k]);
          watches_.push((!c[1]).x, {w.cref, first});
          ws = watches_.data() + off;  // push may reallocate the buffer
          moved = true;
          break;
        }
      }
      if (moved) continue;  // watcher migrated; drop it from this list
      ws[keep++] = {w.cref, first};
      if (value[first.x] == kFalse) {
        for (++i; i < n; ++i) ws[keep++] = ws[i];
        watches_.set_size(p.x, keep);
        return w.cref;
      }
      assign(first, w.cref);
    }
    watches_.set_size(p.x, keep);
    return kClauseRefUndef;
  }

  /// Bumps a learnt clause's activity (problem clauses have none),
  /// rescaling every learnt clause when it overflows.
  void bump(ClauseRef cref);
  void decay() { clause_inc_ /= kClauseDecay; }
  /// Literal-block distance: the number of distinct non-zero decision
  /// levels among \p lits (levels indexed by variable, at most
  /// \p max_level).
  [[nodiscard]] std::uint32_t lbd(std::span<const Lit> lits,
                                  const std::uint32_t* level,
                                  std::uint32_t max_level);

  /// Whether arena clause \p cref is the reason of its first literal's
  /// assignment. Reduction leaves such clauses alone, so forwarding is
  /// always defined for them.
  template <typename Reason>
  [[nodiscard]] bool locked(ClauseRef cref, const std::uint8_t* value,
                            const std::vector<Reason>& reasons) {
    const Lit first = arena_[cref][0];
    const Reason& r = reasons[first.var()];
    return value[first.x] == kTrue && r.is_clause() && r.cref == cref;
  }

  /// Learnt-DB reduction: deletes the worse half of the learnt clauses that
  /// are neither protected nor locked, ordered by LBD descending, then
  /// activity ascending, then ClauseRef ascending; on_delete(lits) sees
  /// each deleted clause, in that order. Then mark-compacts the arena once
  /// a quarter of it is dead — forwarding watchers, the learnt list and every
  /// clause reason on \p trail — and repacks either watch buffer once a
  /// quarter of it is dead slabs. Counts stats.reductions, removed and
  /// arena_gcs.
  template <typename Counters, typename Reason, typename OnDelete>
  void reduce(Counters& stats, const std::uint8_t* value,
              std::vector<Reason>& reasons, std::span<const Lit> trail,
              OnDelete&& on_delete) {
    ++stats.reductions;
    std::vector<ClauseRef> doomed;
    doomed.reserve(learnts_.size());
    for (const ClauseRef cr : learnts_)
      if (!arena_[cr].protect() && !locked(cr, value, reasons))
        doomed.push_back(cr);
    delete_worse_half(doomed);
    // Garbage clauses keep their literals until the next compaction.
    for (const ClauseRef cr : doomed) on_delete(arena_[cr].lits());
    stats.removed += doomed.size();
    if (arena_.garbage_words() > 0 &&
        arena_.garbage_words() * 4 >= arena_.size_words()) {
      ++stats.arena_gcs;
      compact_arena();
      for (const Lit l : trail) {
        Reason& r = reasons[l.var()];
        if (r.is_clause()) r.cref = arena_.forwarded(r.cref);
      }
      arena_.compact_release();
    }
    compact_watches(value);
  }

  /// Debug walker (tests only; O(database)): every live arena clause is
  /// watched exactly once on each of its first two literals, every watcher
  /// references a live in-range clause and carries a blocker of that
  /// clause, and the binary lists are mirror-symmetric (clause {a, b} sits
  /// in both (!a)'s and (!b)'s list). Prints each violation to stderr and
  /// returns false if there was one. Call between solve() calls.
  [[nodiscard]] bool check_watches();

  /// Heap footprint in bytes: the arena (including storage held alive
  /// mid-collection), both watch buffers, the learnt list and the LBD stamps.
  [[nodiscard]] std::uint64_t bytes() const;
  [[nodiscard]] std::uint64_t watch_bytes() const {
    return watches_.bytes() + binaries_.bytes();
  }
  [[nodiscard]] std::uint64_t watcher_relocations() const {
    return watches_.relocations() + binaries_.relocations();
  }

 private:
  /// The non-template steps of reduce(): keep the worse half of
  /// \p candidates and delete it; compact the arena, forwarding watchers
  /// and learnts_ (the caller forwards its reasons, then releases); repack
  /// the watch buffers.
  void delete_worse_half(std::vector<ClauseRef>& candidates);
  void compact_arena();
  void compact_watches(const std::uint8_t* value);

  ClauseArena arena_;
  /// Learnt arena clauses; holds no garbage between reductions.
  std::vector<ClauseRef> learnts_;
  FlatLists<Watcher> watches_;
  FlatLists<Lit> binaries_;
  double clause_inc_ = 1.0;
  /// Per-level generation stamps of lbd().
  std::vector<std::uint32_t> lbd_stamp_;
  std::uint32_t lbd_gen_ = 0;
};

}  // namespace csat::sat

#endif  // CSAT_SAT_CLAUSE_DB_H
