#ifndef CSAT_SAT_SOLVER_H
#define CSAT_SAT_SOLVER_H

/// \file solver.h
/// Conflict-Driven Clause Learning SAT solver.
///
/// A self-contained CDCL solver in the MiniSat/CaDiCaL lineage, built on
/// the CDCL kernel it shares with the circuit core (sat/cdcl.h: trail,
/// EVSIDS activity, first-UIP analysis, the learn step, the clause
/// database of sat/clause_db.h and Luby or Glucose-EMA restarts). This
/// file adds the CNF domain: two-watched-literal propagation with blocker
/// literals, binary clauses kept as bare implied literals in their own
/// lists and propagated first, recursive clause minimization, a VSIDS
/// decision heap with phase saving, assumptions, inprocessing, clause
/// sharing and DRAT emission.
///
/// Trail invariant: assignments are in order. Every literal is recorded at
/// the decision level of the trail segment that holds it, so levels never
/// decrease along the trail and backtrack(target) unassigns exactly the
/// suffix that starts at segment target + 1. A conflict's level is
/// therefore always the current decision level, and a backjump goes
/// straight to the asserting level of the learnt clause.
///
/// Inprocessing (always on):
///  * Restart trail reuse: a restart backtracks only to the first decision
///    the restarted search would make differently (van der Tak et al.)
///    instead of to level 0, so the prefix it would rebuild verbatim is
///    never re-propagated.
///  * Clause-exchange import at every decision-level-0 propagation
///    fixpoint (not just restarts), plus per-worker adaptive glue export
///    thresholds driven by observed ring pressure (ClauseSharingOptions).
///
/// Phase ordering at a restart boundary: a restart with foreign clauses
/// pending backtracks to level 0 and drains them (import_clauses, which
/// asserts level 0) before search resumes; any other restart keeps the
/// prefix reusable_trail_level() finds. Learnt-DB reduction keeps its own
/// conflict-count cadence.
///
/// Memory model: clauses of >= 3 literals are packed header+literals in one
/// contiguous std::uint32_t arena and addressed by 32-bit ClauseRef
/// offsets. Binary clauses have no clause object at all — the watch-list
/// entry stores the other literal (the watcher *is* the clause), so binary
/// propagation never touches the arena, and reasons/conflicts carry a
/// binary tag plus that literal instead of a reference.
///
/// Two roles in the framework:
///  * the *evaluation solver* standing in for Kissat 4.0 / CaDiCaL 2.0
///    (SolverConfig::kissat_like() / cadical_like() presets — two modern
///    CDCL configurations for the paper's Fig. 4 panels), and
///  * the *reward oracle* of the RL loop: stats().decisions is exactly the
///    "number of variable branching times" of Eq. (3).
///
/// Determinism: given the same formula, config and seed, every run produces
/// identical statistics — required for reproducible experiments.

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "cnf/cnf.h"
#include "sat/cdcl.h"
#include "sat/clause_db.h"
#include "sat/clause_exchange.h"

namespace csat::sat {

class ProofTracer;  // sat/proof.h

using cnf::Cnf;
using cnf::Lit;

/// Verdict of a solve: kUnknown means a budget/cancellation stopped the
/// search, never that the formula is undecidable.
enum class Status { kSat, kUnsat, kUnknown };

/// Tunable CDCL heuristics. A plain value object: cheap to copy, no
/// ownership; the solver keeps its own copy at construction.
struct SolverConfig {
  /// Luby or Glucose-EMA restarts (sat/clause_db.h); the circuit core
  /// takes the same member through CircuitSolverConfig::from_cnf().
  RestartConfig restart;

  double var_decay = 0.95;
  bool default_phase = false;  // initial polarity when no saved phase
  /// Probability of a random decision (diversification; 0 disables).
  double random_decision_freq = 0.0;

  /// Learnt-DB reduction: first reduction after reduce_first conflicts,
  /// subsequent intervals grow by reduce_increment. The schedule runs on
  /// across solve() calls. Learnt clauses with LBD <= ClauseDb::kGlueKeep
  /// are never deleted.
  std::uint64_t reduce_first = 2000;
  std::uint64_t reduce_increment = 300;

  std::uint64_t seed = 91648253;

  /// Stand-in for Kissat 4.0: aggressive EMA restarts, fast variable decay.
  static SolverConfig kissat_like() {
    SolverConfig c;
    c.restart.kind = RestartConfig::Kind::kEma;
    c.var_decay = 0.95;
    c.reduce_first = 2000;
    return c;
  }

  /// Stand-in for CaDiCaL 2.0: Luby restarts, slower decay, larger DB.
  static SolverConfig cadical_like() {
    SolverConfig c;
    c.restart.kind = RestartConfig::Kind::kLuby;
    c.restart.luby_unit = 100;
    c.var_decay = 0.99;
    c.reduce_first = 4000;
    c.reduce_increment = 600;
    return c;
  }
};

/// Monotonic search counters: the kernel's SearchStats (sat/cdcl.h) plus
/// the CNF core's own. They accumulate across successive solve() calls on
/// the same solver; a fresh solver starts them at zero.
struct Stats : SearchStats {
  std::uint64_t minimized_lits = 0;
  /// Restarts that kept a non-empty trail prefix instead of re-propagating
  /// it from level 0 (restart trail reuse).
  std::uint64_t reused_trails = 0;
  /// Clause sharing (zero unless connected to a ClauseExchange).
  std::uint64_t exported = 0;  ///< learnt clauses published to the exchange
  std::uint64_t imported = 0;  ///< foreign clauses attached to this solver
  /// Ring publications that lapped this worker's import cursor before it
  /// drained them (the publisher is unknowable once the slot is reused, so
  /// this includes the worker's own exports).
  std::uint64_t import_lost = 0;
  /// Watcher slab moves paid to grow a full per-literal list (zero on the
  /// first descent when the occurrence-histogram reservation sized every
  /// list right).
  std::uint64_t watcher_relocations = 0;
  /// Heap footprint of the watch lists in bytes — a gauge refreshed at
  /// every solve() exit, not a monotonic counter.
  std::uint64_t watch_bytes = 0;
  /// Total solver heap footprint in bytes (arena + watch lists + per-var
  /// state) — a gauge refreshed at every solve() exit, like watch_bytes.
  std::uint64_t memory_bytes = 0;
};

/// Cross-worker learnt-clause sharing: the portfolio's switch and ring size
/// plus each connected solver's export filter.
struct ClauseSharingOptions {
  /// Master switch. Even when true, sharing is suppressed for 1-worker
  /// portfolios (nothing to share with) and in deterministic mode (import
  /// timing depends on thread scheduling, which would break bit-for-bit
  /// reproducibility; see PortfolioOptions::deterministic).
  bool enabled = true;
  /// Only learnt clauses with LBD <= max_lbd are exported ("glue" sharing).
  /// Each worker starts its export filter here and tightens/loosens it
  /// inside [kAdaptiveMinLbd, kAdaptiveMaxLbd] from the import_lost share
  /// it observes while draining (ring pressure), so loose filters that
  /// would flood the ring self-correct instead of degrading every worker.
  std::uint32_t max_lbd = 2;
  /// ... and with at most this many literals.
  std::uint32_t max_size = 8;
  /// Export ring slots; producers overwrite the oldest clause when a
  /// consumer lags more than this many publications behind.
  std::size_t ring_capacity = 1 << 12;
  /// The adaptive export band.
  static constexpr std::uint32_t kAdaptiveMinLbd = 1;
  static constexpr std::uint32_t kAdaptiveMaxLbd = 4;
};

/// Thread model: a Solver instance is confined to one thread at a time (no
/// internal locking); distinct instances never share state, so any number
/// may run concurrently. The only cross-thread channels are the read-only
/// Limits::terminate flag and a connected ClauseExchange (which is
/// internally synchronized and must outlive the connection). The solver
/// owns its entire clause database; Cnf inputs are copied in.
class Solver : public Cdcl<Solver> {
 public:
  explicit Solver(SolverConfig config = {});

  /// Adds all clauses (and variables) of \p formula. Must be called at
  /// decision level 0 (i.e. outside solve()).
  void add_formula(const Cnf& formula);

  /// Declares the next variable (0-based) and returns its index.
  std::uint32_t new_var();
  /// Number of declared variables; literals range over [0, 2 * num_vars()).
  [[nodiscard]] std::uint32_t num_vars() const {
    return static_cast<std::uint32_t>(level_.size());
  }

  /// Adds a clause; returns false when the formula became trivially
  /// unsatisfiable (empty clause / conflicting units at level 0).
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  /// Runs CDCL search until a verdict or a budget limit.
  Status solve(const Limits& limits = {});

  /// Solves under temporary assumptions (decided, in order, before any free
  /// decision). kUnsat means unsatisfiable *under the assumptions*; the
  /// clause database and learned facts persist, enabling incremental use
  /// (e.g. one fault-site assumption set per ATPG query).
  Status solve_assuming(std::span<const Lit> assumptions,
                        const Limits& limits = {});

  /// Connects this solver to a portfolio clause exchange as worker
  /// \p worker_id. Learnt clauses passing \p sharing are published after
  /// conflict analysis; foreign clauses are drained by import_clauses() at
  /// restart boundaries (and at solve() entry). Pass nullptr to disconnect.
  /// Every clause moved either way is implied by the common input formula,
  /// so sharing never changes SAT/UNSAT verdicts — only search effort.
  void connect_exchange(ClauseExchange* exchange, std::size_t worker_id,
                        const ClauseSharingOptions& sharing = {});

  /// Attaches a DRAT proof sink (sat/proof.h) or detaches it (nullptr).
  /// While attached, every learnt clause, learnt-DB deletion and the final
  /// empty clause are emitted, so an UNSAT verdict carries a certificate
  /// checkable against the added formula (sat/drat_check.h). Must be
  /// called before any clause or variable is added — the proof's premise
  /// set is exactly what add_formula() / add_clause() receive afterwards.
  /// Mutually exclusive with connect_exchange(): imported clauses are
  /// derived in *another* worker's search and are not RUP-derivable here,
  /// so proof mode is sequential-only (solve_portfolio() enforces the same
  /// rule). Also mutually exclusive with solve_assuming(): an
  /// assumption-scoped UNSAT is not a refutation of the formula.
  void set_proof(ProofTracer* tracer);

  /// Drains foreign clauses from the connected exchange into the clause
  /// database (attached as learnt, deduplicated by clause hash, simplified
  /// against the level-0 assignment). Must be called at decision level 0;
  /// solve() does so automatically at every restart. Returns false when an
  /// imported clause (or the propagation it triggers) proves the formula
  /// UNSAT at the root.
  bool import_clauses();

  /// Complete model (indexed by variable) — valid after Status::kSat and
  /// until the next solve(); the reference stays owned by the solver.
  [[nodiscard]] const std::vector<bool>& model() const { return model_; }

  /// Counters accumulated since construction.
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// The configuration this solver was constructed with (immutable).
  [[nodiscard]] const SolverConfig& config() const { return config_; }

  /// Current heap footprint in bytes: clause arena + watch lists + the
  /// per-variable/trail state. The quantity Limits::soft_memory_bytes /
  /// hard_memory_bytes budget. O(1).
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  friend class Cdcl<Solver>;

  // --- propagation (the kernel calls these) ---
  /// Binary lists to fixpoint first, then one long-clause literal over the
  /// watcher arena (prefetching ahead), and back.
  Conflict propagate();
  /// Unassigns the trail suffix above decision level \p level, front to
  /// back: the order variables re-enter the decision heap is part of
  /// determinism.
  void backtrack(std::uint32_t level);

  // --- conflict analysis ---
  /// Recursive minimization of the first-UIP clause; counts minimized_lits.
  void minimize(std::vector<Lit>& learnt);
  [[nodiscard]] bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  /// Kernel hooks: the heap follows a bumped variable; learnt clauses go
  /// to the proof and the exchange, deleted ones to the proof.
  void on_bump(std::uint32_t v) {
    if (heap_pos_[v] >= 0) heap_up(static_cast<std::uint32_t>(heap_pos_[v]));
  }
  void on_learn(std::span<const Lit> lits, std::uint32_t lbd) {
    proof_add(lits);  // first-UIP clause: RUP by construction
    if (exchange_ != nullptr) export_clause(lits, lbd);
  }
  void on_delete(std::span<const Lit> lits) { proof_delete(lits); }

  // --- decisions ---
  Lit pick_branch();
  void heap_insert(std::uint32_t v);
  std::uint32_t heap_pop();
  void heap_up(std::uint32_t pos);
  void heap_down(std::uint32_t pos);
  [[nodiscard]] bool heap_less(std::uint32_t a, std::uint32_t b) const {
    return activity_[a] > activity_[b];
  }

  // --- clause DB ---
  /// Level-0 clause normalization shared by add_clause() and import_one():
  /// sort, drop duplicate and root-falsified literals, detect tautologies
  /// and root-satisfied clauses (kRedundant) and the empty clause (kEmpty).
  enum class RootNorm { kRedundant, kEmpty, kClause };
  RootNorm normalize_at_root(std::span<const Lit> lits, std::vector<Lit>& out);
  /// Lays the watch headers out from \p formula's literal-occurrence
  /// histogram (two smallest literals of each clause — normalize_at_root()
  /// sorts, so those are the ones ClauseDb::attach() will watch) so the
  /// initial attach and first descent pay no slab relocation. No-op once
  /// any list holds data.
  void reserve_watches(const Cnf& formula);

  // --- restarts ---
  /// Deepest decision level whose prefix the restarted search would rebuild
  /// verbatim (every kept decision has higher EVSIDS activity than the best
  /// unassigned variable and matches its saved phase) — restarting to that
  /// level instead of 0 skips the redundant re-propagation. Returns 0 when
  /// assumptions are active (their levels must be re-decided in order).
  [[nodiscard]] std::uint32_t reusable_trail_level();

  // --- clause sharing ---
  void export_clause(std::span<const Lit> lits, std::uint32_t lbd);
  void import_one(std::span<const Lit> lits, std::uint32_t lbd);
  /// Cheap check (one atomic load) whether the exchange holds tickets this
  /// worker has not drained — gates the level-0 fixpoint import.
  [[nodiscard]] bool has_pending_import() const {
    return exchange_ != nullptr &&
           exchange_->published() > exchange_cursor_.next;
  }
  /// Adaptive glue export: folds one drain's delivered/lost counts into the
  /// pressure window and moves export_lbd_ inside the adaptive band.
  void adapt_sharing(const ClauseExchange::DrainStats& drained);

  // --- proof emission ---
  void proof_add(std::span<const Lit> lits) {
    if (proof_ != nullptr) emit_proof_add(lits);
  }
  void proof_delete(std::span<const Lit> lits) {
    if (proof_ != nullptr) emit_proof_delete(lits);
  }
  void emit_proof_add(std::span<const Lit> lits);
  void emit_proof_delete(std::span<const Lit> lits);
  /// Shared epilogue of every UNSAT exit from solve(): emits the empty
  /// clause (once) so the proof is a complete refutation.
  Status proved_unsat();

  /// The CDCL loop behind solve(), which wraps it only to refresh the
  /// watch-storage gauges (Stats::watch_bytes / watcher_relocations).
  Status search(const Limits& limits);

  SolverConfig config_;
  Stats stats_;

  std::size_t qhead_ = 0;
  /// Binary propagation head: leads qhead_ so every literal resolves its
  /// binary implications before any long-clause work.
  std::size_t bin_qhead_ = 0;

  std::vector<std::uint32_t> heap_;      // binary max-heap of vars
  std::vector<std::int32_t> heap_pos_;   // -1 when absent

  // minimize()'s seen_ marks, above the kernel's kSeenSource
  static constexpr std::uint8_t kSeenRemovable = 2;  // proven removable
  static constexpr std::uint8_t kSeenFailed = 3;     // proven not removable
  /// One suspended literal of lit_redundant()'s path: `next` indexes the
  /// antecedent to resume at.
  struct MinimizeFrame {
    Lit lit;
    std::uint32_t next;
  };
  std::vector<MinimizeFrame> analyze_stack_;

  // clause-sharing state
  ClauseExchange* exchange_ = nullptr;
  std::size_t exchange_id_ = 0;
  ClauseSharingOptions sharing_;
  ClauseExchange::Cursor exchange_cursor_;
  /// Effective export LBD filter: sharing_.max_lbd, moved inside the
  /// adaptive band by adapt_sharing().
  std::uint32_t export_lbd_ = 0;
  /// Ring-pressure window for adapt_sharing(): lost vs total tickets seen.
  std::uint64_t adapt_lost_ = 0;
  std::uint64_t adapt_seen_ = 0;
  /// Hashes of clauses this solver already published or imported, so the
  /// same clause (normally) never crosses the exchange twice for this
  /// worker. Cleared when it reaches kMaxSharedHashes: dedup is
  /// best-effort — a duplicate that slips through is just a redundant
  /// learnt clause the next reduction can delete — and the set must not
  /// grow without bound on long runs with loose sharing filters.
  static constexpr std::size_t kMaxSharedHashes = 1u << 20;
  std::unordered_set<std::uint64_t> shared_hashes_;
  /// normalize_at_root() scratch, and the normalized clause add_clause()
  /// and import_one() attach: reused so loading a formula allocates no
  /// per-clause buffer.
  std::vector<Lit> norm_scratch_;
  std::vector<Lit> root_clause_;

  /// DRAT sink (never owned); see set_proof(). proof_empty_emitted_ keeps
  /// repeated UNSAT exits from duplicating the final empty clause.
  ProofTracer* proof_ = nullptr;
  bool proof_empty_emitted_ = false;

  std::uint64_t rng_state_;
  std::vector<bool> model_;
  std::vector<Lit> assumptions_;
};

/// One-shot convenience: solve \p formula under \p config and \p limits.
struct SolveResult {
  Status status = Status::kUnknown;
  Stats stats;
  std::vector<bool> model;
};
/// When \p proof is non-null it receives the solve's DRAT steps
/// (set_proof() is called before the formula is added).
SolveResult solve_cnf(const Cnf& formula, const SolverConfig& config = {},
                      const Limits& limits = {}, ProofTracer* proof = nullptr);

}  // namespace csat::sat

#endif  // CSAT_SAT_SOLVER_H
