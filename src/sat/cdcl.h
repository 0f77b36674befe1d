#ifndef CSAT_SAT_CDCL_H
#define CSAT_SAT_CDCL_H

/// \file cdcl.h
/// The CDCL kernel of both cores: sat::Cdcl<Core> is the CRTP base of
/// sat::Solver (CNF variables) and sat::CircuitSolver (AIG nodes). It owns
/// the part of conflict-driven clause learning that does not depend on the
/// propagation domain: the assignment and in-order trail, decisions,
/// variable activity, first-UIP analysis, the learn step (count, attach,
/// assert, decay, restart-policy update, scheduled reduction), the clause
/// database (sat/clause_db.h), the restart policy, the check_trail()
/// walker and the byte gauge of its arrays.
///
/// Each core supplies, as members the kernel calls without a virtual call:
///  * propagate() and backtrack(level). The unassignment order is search
///    state: Solver goes front to back for its VSIDS heap, CircuitSolver
///    back to front for its justification frontier;
///  * minimize(learnt), run after first-UIP while the clause's literals
///    (all but learnt[0]) are marked kSeenSource in seen_. It may set marks
///    of its own on variables it records in analyze_clear_;
///  * memory_bytes(), the gauge the memory budgets cap.
/// A core may hide the kernel's no-op hooks: gate_clause() (the circuit
/// core's implicit clauses), on_bump() and on_activity_rescale() (decision
/// structures keyed on activity), on_learn() and on_delete() (observers of
/// each learnt or deleted clause: DRAT, clause export).
///
/// Reasons and conflicts share one encoding: an arena clause reference,
/// kClauseRefBinary with the other literal beside it, or a gate tag
/// (sat/arena.h) with the gate node beside it. The kernel materializes
/// binary and arena clauses itself, and asks the core only for gate ones.
///
/// Each core keeps its own search loop, because its work at a propagation
/// fixpoint is domain work (Solver: import, trail reuse, assumptions;
/// CircuitSolver: level-0 restarts, frontier decisions). The
/// conflict branch of both loops is learn().

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "common/check.h"
#include "sat/clause_db.h"

namespace csat::sat {

/// Monotonic search counters of both cores, extended by sat::Stats and
/// sat::CircuitStats. They accumulate across successive solve() calls on
/// the same solver; a fresh solver starts them at zero.
struct SearchStats {
  /// "Branching times": the paper's complexity proxy.
  std::uint64_t decisions = 0;
  std::uint64_t conflicts = 0;     ///< conflicts found by propagation
  std::uint64_t propagations = 0;  ///< trail literals dequeued by BCP
  /// Literals enqueued by binary clauses, which propagate before any other
  /// clause is visited.
  std::uint64_t binary_props = 0;
  std::uint64_t restarts = 0;
  /// Clauses learned from conflicts, units included (imported clauses are
  /// not): conflicts − 1 after an UNSAT solve, whose last conflict is at
  /// level 0.
  std::uint64_t learned = 0;
  /// Literals across all clauses learned from conflicts (units included);
  /// learnt_literals / conflicts is the mean learned-clause length.
  std::uint64_t learnt_literals = 0;
  std::uint64_t removed = 0;
  /// Learnt-DB reduction passes, and how many of them ended in a
  /// mark-compact arena collection.
  std::uint64_t reductions = 0;
  std::uint64_t arena_gcs = 0;
  std::uint64_t max_decision_level = 0;
  /// Learnt-DB reductions forced by Limits::soft_memory_bytes.
  std::uint64_t memory_reductions = 0;
  /// Searches stopped by Limits::hard_memory_bytes (the solve returned
  /// Status::kUnknown; state stays valid and resumable).
  std::uint64_t memout_stops = 0;
};

/// Why a variable is assigned: nothing (a decision or a root unit), an
/// arena clause, a binary clause (aux: the other, false literal's Lit.x;
/// binaries have no storage) or a gate clause (cref: its tag, aux: the
/// gate node).
struct Reason {
  ClauseRef cref = kClauseRefUndef;
  std::uint32_t aux = 0;

  static Reason none() { return {}; }
  static Reason clause(ClauseRef c) { return {c, 0}; }
  static Reason binary(Lit other) { return {kClauseRefBinary, other.x}; }
  static Reason gate(ClauseRef tag, std::uint32_t node) { return {tag, node}; }
  [[nodiscard]] bool is_none() const { return cref == kClauseRefUndef; }
  [[nodiscard]] bool is_binary() const { return cref == kClauseRefBinary; }
  [[nodiscard]] bool is_clause() const { return cref < kClauseRefGateC3; }
};

/// A clause propagate() found all false: an arena clause, a binary clause
/// (its literals a, b carried by value), a gate clause (tag and node in
/// aux), or none.
struct Conflict {
  ClauseRef cref = kClauseRefUndef;
  std::uint32_t aux = 0;
  Lit a{};
  Lit b{};

  static Conflict clause(ClauseRef c) { return {c, 0, {}, {}}; }
  static Conflict binary(Lit a, Lit b) { return {kClauseRefBinary, 0, a, b}; }
  static Conflict gate(ClauseRef tag, std::uint32_t node) {
    return {tag, node, {}, {}};
  }
  [[nodiscard]] bool is_none() const { return cref == kClauseRefUndef; }
};

template <typename Core>
class Cdcl {
 public:
  /// Debug walker (tests only; O(trail + clause database)), between
  /// solve() calls: the literal value slots are pairwise consistent and
  /// match the trail; every reason re-materializes to a clause whose first
  /// literal is the implied one and whose others are false; and the watch
  /// invariants of ClauseDb::check_watches() hold. Prints each violation
  /// to stderr and returns false if there was one.
  [[nodiscard]] bool check_trail();

 protected:
  using enum ClauseDb::Value;

  /// seen_ marks: kSeenSource tags the literals of the clause being
  /// learnt; a core's minimize() may use higher values.
  static constexpr std::uint8_t kSeenNone = 0;
  static constexpr std::uint8_t kSeenSource = 1;

  /// Takes the restart policy and the first reduction threshold from the
  /// core's config. The reduction schedule is set once: a resumed solve()
  /// continues it.
  template <typename Config>
  explicit Cdcl(const Config& config)
      : restarts_(config.restart), reduce_budget_(config.reduce_first) {}

  /// Literal-indexed truth lookup: one byte load, no sign arithmetic — the
  /// single hottest read of propagation.
  [[nodiscard]] std::uint8_t value(Lit l) const { return value_[l.x]; }
  /// Truth value of variable \p v (its positive literal).
  [[nodiscard]] std::uint8_t var_value(std::uint32_t v) const {
    return value_[v << 1];
  }
  [[nodiscard]] std::uint32_t decision_level() const {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }

  /// Grows the per-variable arrays and the clause database to \p n
  /// variables: new ones unassigned, phase false, activity zero.
  void resize_vars(std::size_t n) {
    value_.resize(2 * n, kUnknown);
    phase_.resize(n, kFalse);
    level_.resize(n, 0);
    reason_.resize(n, Reason::none());
    activity_.resize(n, 0.0);
    seen_.resize(n, kSeenNone);
    db_.ensure_vars(n);
  }

  /// Assigns \p l true at the current decision level.
  void enqueue(Lit l, Reason reason) {
    CSAT_DCHECK(value(l) == kUnknown);
    value_[l.x] = kTrue;
    value_[l.x ^ 1u] = kFalse;
    level_[l.var()] = decision_level();
    reason_[l.var()] = reason;
    trail_.push_back(l);
  }

  void open_level() {
    trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
  }

  /// Branches on \p l: counts the decision, opens a level and enqueues it.
  void decide(Lit l) {
    SearchStats& s = counters();
    ++s.decisions;
    open_level();
    s.max_decision_level =
        std::max<std::uint64_t>(s.max_decision_level, decision_level());
    enqueue(l, Reason::none());
  }

  /// EVSIDS bump; every activity is scaled by 1e-100 once one exceeds
  /// 1e100.
  void bump_var(std::uint32_t v) {
    activity_[v] += var_inc_;
    if (activity_[v] > 1e100) {
      for (double& a : activity_) a *= 1e-100;
      var_inc_ *= 1e-100;
      self().on_activity_rescale(1e-100);
    }
    self().on_bump(v);
  }

  /// The reason clause of assigned literal \p p, \p p first: a view into
  /// the arena, or of a buffer the next call overwrites.
  std::span<const Lit> reason_lits(Lit p) {
    const Reason r = reason_[p.var()];
    CSAT_DCHECK(!r.is_none());
    if (r.is_clause()) return db_.arena()[r.cref].lits();
    clause_buf_[0] = p;
    if (r.is_binary()) {
      clause_buf_[1] = Lit(r.aux);
      return {clause_buf_, 2};
    }
    Lit gate[3];
    const std::uint32_t size = self().gate_clause(r.cref, r.aux, gate);
    std::size_t n = 1;
    for (std::uint32_t i = 0; i < size; ++i)
      if (gate[i] != p) clause_buf_[n++] = gate[i];
    // A degenerate gate (fanin0 == fanin1) can shrink C3 to two literals.
    CSAT_DCHECK(n >= 2);
    return {clause_buf_, n};
  }

  /// The conflict branch of both search loops. Counts the conflict; at
  /// decision level 0 clears ok_ and returns false. Otherwise learns the
  /// first-UIP clause, backjumps, attaches and asserts it, decays both
  /// activities, feeds its LBD to the restart policy and runs the
  /// scheduled reduction.
  bool learn(const Conflict& confl) {
    SearchStats& s = counters();
    ++s.conflicts;
    if (decision_level() == 0) {
      ok_ = false;
      return false;
    }
    std::uint32_t lbd = 0;
    self().backtrack(analyze(confl, lbd));
    ++s.learned;
    s.learnt_literals += learnt_.size();
    self().on_learn(learnt_, lbd);
    Reason reason = Reason::none();
    if (learnt_.size() > 1) {
      const ClauseRef cref = db_.attach(learnt_, /*learnt=*/true, lbd);
      reason = cref == kClauseRefBinary ? Reason::binary(learnt_[1])
                                        : Reason::clause(cref);
    }
    enqueue(learnt_[0], reason);
    const auto& config = self().config_;
    var_inc_ /= config.var_decay;
    db_.decay();
    restarts_.on_conflict(lbd);
    if (s.conflicts >= reduce_budget_) {
      reduce_db();
      ++reduce_count_;
      reduce_budget_ = s.conflicts + config.reduce_first +
                       config.reduce_increment * reduce_count_;
    }
    return true;
  }

  /// The budget checkpoints of both search loops: true, after a backtrack
  /// to level 0 that keeps the state resumable, when the search must stop
  /// with Status::kUnknown. interrupted() checks Limits::terminate and the
  /// memory caps; a reduction the soft cap forces leaves the conflict
  /// schedule alone. spent() checks the conflict, decision and wall-clock
  /// budgets.
  bool interrupted(SearchBudget& budget) {
    const bool stop =
        budget.terminated() ||
        budget.memout(
            counters(), [this] { return self().memory_bytes(); },
            [this] { reduce_db(); });
    if (stop) self().backtrack(0);
    return stop;
  }
  bool spent(const SearchBudget& budget) {
    const bool stop = budget.spent(counters().conflicts, counters().decisions);
    if (stop) self().backtrack(0);
    return stop;
  }

  /// Heap bytes of the clause database and the per-variable arrays. Only
  /// the database grows during search; a core's memory_bytes() adds its own
  /// arrays, so a cap below the instance's footprint trips at once.
  [[nodiscard]] std::uint64_t kernel_bytes() const {
    return db_.bytes() +
           (value_.capacity() + phase_.capacity() + seen_.capacity()) *
               sizeof(std::uint8_t) +
           level_.capacity() * sizeof(std::uint32_t) +
           trail_.capacity() * sizeof(Lit) +
           reason_.capacity() * sizeof(Reason) +
           activity_.capacity() * sizeof(double);
  }

  // --- hooks a core may hide ---
  /// Writes the literals of gate \p node's implicit clause \p tag to
  /// \p out (at most three) and returns their number.
  std::uint32_t gate_clause(ClauseRef /*tag*/, std::uint32_t /*node*/,
                            Lit* /*out*/) const {
    CSAT_CHECK_MSG(false, "gate reason in a core without gates");
    return 0;
  }
  void on_bump(std::uint32_t /*v*/) {}
  void on_activity_rescale(double /*factor*/) {}
  void on_learn(std::span<const Lit> /*lits*/, std::uint32_t /*lbd*/) {}
  void on_delete(std::span<const Lit> /*lits*/) {}

  /// Every clause of >= 2 literals and every watcher (units live on the
  /// trail only).
  ClauseDb db_;
  RestartPolicy restarts_;
  bool ok_ = true;  ///< false: root-level UNSAT established

  std::vector<std::uint8_t> value_;   ///< per literal (Lit.x)
  std::vector<std::uint8_t> phase_;   ///< saved polarity per variable
  std::vector<std::uint32_t> level_;  ///< per variable
  std::vector<Reason> reason_;        ///< per variable
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;

  std::vector<double> activity_;
  double var_inc_ = 1.0;

  std::vector<std::uint8_t> seen_;  ///< analysis marks per variable
  std::vector<Lit> analyze_clear_;  ///< literals whose marks analyze() clears
  std::vector<Lit> learnt_;         ///< the clause learn() builds

 private:
  Core& self() { return static_cast<Core&>(*this); }
  SearchStats& counters() { return self().stats_; }

  /// First-UIP analysis of \p confl into learnt_, then the core's
  /// minimize(). Moves a literal of the backjump level to learnt_[1] and
  /// returns that level; \p lbd receives the clause's LBD.
  std::uint32_t analyze(const Conflict& confl, std::uint32_t& lbd);

  void reduce_db() {
    db_.reduce(counters(), value_.data(), reason_, trail_,
               [this](std::span<const Lit> lits) { self().on_delete(lits); });
  }

  /// Reduction schedule: the next threshold and the scheduled reductions
  /// so far.
  std::uint64_t reduce_budget_;
  std::uint64_t reduce_count_ = 0;
  /// Materialized binary and gate clauses of analysis.
  Lit clause_buf_[3]{};
};

template <typename Core>
std::uint32_t Cdcl<Core>::analyze(const Conflict& confl, std::uint32_t& lbd) {
  std::vector<Lit>& learnt = learnt_;
  learnt.clear();
  learnt.push_back(Lit{});  // slot 0: the asserting literal, filled below
  std::span<const Lit> clause;
  if (confl.cref == kClauseRefBinary) {
    clause_buf_[0] = confl.a;
    clause_buf_[1] = confl.b;
    clause = {clause_buf_, 2};
  } else if (confl.cref < kClauseRefGateC3) {
    db_.bump(confl.cref);
    clause = db_.arena()[confl.cref].lits();
  } else {
    clause = {clause_buf_,
              self().gate_clause(confl.cref, confl.aux, clause_buf_)};
  }
  std::uint32_t counter = 0;
  std::size_t start = 0;
  std::size_t index = trail_.size();
  Lit p{};
  for (;;) {
    for (std::size_t j = start; j < clause.size(); ++j) {
      const Lit q = clause[j];
      const std::uint32_t v = q.var();
      if (seen_[v] != kSeenNone || level_[v] == 0) continue;
      seen_[v] = kSeenSource;
      bump_var(v);
      if (level_[v] >= decision_level())
        ++counter;
      else
        learnt.push_back(q);
    }
    // Walk the trail back to the next marked literal. The trail is in
    // order and the walk stops before the current level's segment runs
    // out, so every literal it reaches is at the current level.
    do {
      p = trail_[--index];
    } while (seen_[p.var()] == kSeenNone);
    seen_[p.var()] = kSeenNone;
    if (--counter == 0) break;  // p is the first UIP
    const Reason r = reason_[p.var()];
    if (r.is_clause()) db_.bump(r.cref);
    clause = reason_lits(p);
    start = 1;  // skip the implied literal itself
  }
  learnt[0] = !p;

  // Only the clause's own literals are still marked; minimize() may add
  // marks, and every mark is cleared through analyze_clear_.
  analyze_clear_.assign(learnt.begin() + 1, learnt.end());
  self().minimize(learnt);
  for (const Lit l : analyze_clear_) seen_[l.var()] = kSeenNone;

  std::uint32_t backjump = 0;
  if (learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i)
      if (level_[learnt[i].var()] > level_[learnt[max_i].var()]) max_i = i;
    std::swap(learnt[1], learnt[max_i]);
    backjump = level_[learnt[1].var()];
  }
  lbd = db_.lbd(learnt, level_.data(), decision_level());
  return backjump;
}

template <typename Core>
bool Cdcl<Core>::check_trail() {
  bool ok = true;
  const auto fail = [&ok](const char* what, std::uint64_t a, std::uint64_t b) {
    std::fprintf(stderr, "check_trail: %s (%llu, %llu)\n", what,
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
    ok = false;
  };
  const std::size_t n = level_.size();
  std::vector<std::uint8_t> on_trail(n, 0);
  for (const Lit l : trail_) {
    if (l.var() >= n) {
      fail("trail literal out of range", l.x, 0);
      continue;
    }
    if (value(l) != kTrue) fail("trail literal not true", l.x, 0);
    if (on_trail[l.var()] != 0) fail("variable twice on trail", l.var(), 0);
    on_trail[l.var()] = 1;
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint8_t pos = value_[2 * v];
    const std::uint8_t neg = value_[2 * v + 1];
    if ((pos == kUnknown) != (neg == kUnknown))
      fail("half-assigned variable", v, 0);
    if (pos != kUnknown && pos == neg) fail("contradictory value slots", v, 0);
    if ((pos != kUnknown) != (on_trail[v] != 0))
      fail("assignment without trail entry", v, 0);
  }
  // Antecedents precede their consequence on the trail, so reasons hold
  // even mid-propagation.
  for (const Lit p : trail_) {
    if (p.var() >= n || reason_[p.var()].is_none()) continue;
    const std::span<const Lit> lits = reason_lits(p);
    if (lits.empty() || lits[0] != p) {
      fail("reason does not imply its literal", p.x, 0);
      continue;
    }
    for (std::size_t j = 1; j < lits.size(); ++j)
      if (value(lits[j]) != kFalse)
        fail("reason with non-false antecedent", p.x, lits[j].x);
  }
  if (!db_.check_watches()) ok = false;
  return ok;
}

}  // namespace csat::sat

#endif  // CSAT_SAT_CDCL_H
