#ifndef CSAT_SAT_CIRCUIT_SOLVER_H
#define CSAT_SAT_CIRCUIT_SOLVER_H

/// \file circuit_solver.h
/// Circuit-native CDCL solver: search runs directly on the AIG.
///
/// The variables of this solver are AIG node ids — no Tseitin encoding is
/// ever built. Every live AND gate g = AND(a, b) contributes three
/// *implicit* clauses that exist only as propagation rules and tagged
/// reason/conflict handles, never as stored literals:
///
///   C1 = (!g, a)        g true forces a; a false forces g false
///   C2 = (!g, b)        g true forces b; b false forces g false
///   C3 = (g, !a, !b)    a and b true force g; g false + one true fanin
///                       forces the other fanin false
///
/// Inverters are edges (fanin complement bits), so "INV propagation" is
/// free: a literal over a node id carries the complement in its sign bit,
/// bit-identical between aig::Lit and cnf::Lit. Search runs on the CDCL
/// kernel the CNF solver uses (sat/cdcl.h), which sees a gate clause as a
/// tag (sat/arena.h) and the gate node. Learnt constraints are ordinary
/// clauses over gate literals in the kernel's clause database
/// (sat/clause_db.h); analysis minimizes them by one-level
/// self-subsumption. The CSAT goal "some PO is 1" is the one irredundant
/// clause in the database (unit/binary/long depending on PO count),
/// mirroring cnf::tseitin_encode's goal semantics exactly — including the
/// trivially-SAT (constant-true or tautological PO set) and trivially-UNSAT
/// (no non-constant PO) short circuits — so the two backends always agree.
///
/// Decisions follow the justification frontier instead of a global VSIDS
/// ranking over all variables:
///  * while the goal clause is unsatisfied, decide an unassigned PO
///    literal true (highest activity first);
///  * otherwise justify the highest-activity *frontier* gate — a gate
///    assigned false whose fanins are both unassigned — by deciding one
///    fanin false (choosing the fanin whose saved phase already points
///    false).
/// Gates outside the active PO cone are never assigned by this decision
/// rule (only learnt-clause propagation can touch them), so branching is
/// confined to unjustified gates that actually feed the objective. The SAT
/// exit condition is: propagation fixpoint AND goal satisfied AND frontier
/// empty. An empty frontier alone is NOT sufficient — every assigned-false
/// gate must be justified by a false fanin, and the goal needs a true PO;
/// both together guarantee that completing the unassigned PIs from saved
/// phases and evaluating the network reproduces every assigned value, which
/// is what witness() returns and finish checks.
///
/// Restarts follow the restart policy Solver uses (sat/clause_db.h): Luby
/// or Glucose-EMA over learnt-clause LBDs, chosen by
/// CircuitSolverConfig::restart, which from_cnf() copies from the preset.
/// Each solve() starts a new Luby sequence, so a budgeted slice shorter
/// than the first Luby interval never restarts. A restart backtracks to
/// level 0.
///
/// Phase initialization comes from aig/simulate random-pattern signatures:
/// each node's saved phase starts as the majority value it takes under 256
/// random input patterns drawn from config.seed, so early decisions walk
/// the circuit toward value combinations that random simulation says are
/// feasible.
///
/// Determinism: with no wall-clock budget the solver is a pure function of
/// (AIG, config, limits) — there are no random decisions; the RNG only
/// seeds the simulation patterns at load().
///
/// Thread model: confined to one thread at a time, like Solver. The only
/// cross-thread channel is the read-only Limits::terminate flag.

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.h"
#include "sat/cdcl.h"
#include "sat/clause_db.h"
#include "sat/solver.h"

namespace csat::sat {

/// Tunable heuristics of the circuit-native CDCL loop. Deliberately a
/// subset of SolverConfig: the circuit arm shares Solver's kernel and
/// restart policy but skips restart trail reuse (its restarts backtrack to
/// level 0). Its trail is in order, like Solver's; the frontier
/// bookkeeping assumes that.
struct CircuitSolverConfig {
  /// Luby or Glucose-EMA restarts; the default is Luby with unit 64.
  RestartConfig restart;
  double var_decay = 0.95;
  /// Learnt-DB reduction cadence (same semantics as SolverConfig).
  std::uint64_t reduce_first = 2000;
  std::uint64_t reduce_increment = 300;
  /// Seeds the random patterns of the phase-init simulation.
  std::uint64_t seed = 91648253;

  /// Copies the knobs a CNF SolverConfig shares with the circuit core: the
  /// restart member (Luby or EMA, and the Luby unit), variable decay, the
  /// reduction cadence and the seed. The pipeline and the server use it,
  /// so one preset steers both arms.
  static CircuitSolverConfig from_cnf(const SolverConfig& c) {
    CircuitSolverConfig cc;
    cc.restart = c.restart;
    cc.var_decay = c.var_decay;
    cc.reduce_first = c.reduce_first;
    cc.reduce_increment = c.reduce_increment;
    cc.seed = c.seed;
    return cc;
  }
};

/// Monotonic search counters, zero at construction: the kernel's
/// SearchStats (sat/cdcl.h) plus the gate-level counters sat_micro reports
/// per backend.
struct CircuitStats : SearchStats {
  /// Decisions that justified a frontier gate (subset of decisions).
  std::uint64_t justification_decisions = 0;
  /// Decisions that targeted an unsatisfied goal literal (the rest).
  std::uint64_t goal_decisions = 0;
  /// Literals enqueued by the implicit gate rules C1/C2/C3.
  std::uint64_t gate_propagations = 0;
  /// Gates pushed into the justification frontier (re-entries included).
  std::uint64_t frontier_inserts = 0;
  /// Largest frontier candidate-heap size observed at a decision — an upper
  /// bound on the live frontier (stale entries are dropped lazily at pop).
  std::uint64_t max_frontier = 0;
};

class CircuitSolver : public Cdcl<CircuitSolver> {
 public:
  explicit CircuitSolver(CircuitSolverConfig config = {});

  /// Loads a CSAT instance ("some PO of g is 1"), once per solver; the AIG
  /// itself is not retained (its structure is copied into flat per-node
  /// arrays).
  void load(const aig::Aig& g);

  /// Runs the circuit CDCL loop until a verdict or a budget limit.
  /// Status::kUnknown leaves the database and stats intact at decision
  /// level 0; a later solve() resumes the search (budgeted slicing).
  Status solve(const Limits& limits = {});

  /// PI assignment witnessing kSat (pis() order), valid until the next
  /// solve(). Unassigned PIs are completed from saved phases.
  [[nodiscard]] const std::vector<bool>& witness() const { return witness_; }
  /// Complete 0/1 evaluation of every node under witness() (indexed by node
  /// id; dead nodes evaluate as 0). Valid after kSat. This is the
  /// assignment the differential tests cross-check against the Tseitin
  /// encoding via node2var.
  [[nodiscard]] const std::vector<std::uint8_t>& node_values() const {
    return node_values_;
  }

  [[nodiscard]] const CircuitStats& stats() const { return stats_; }
  [[nodiscard]] const CircuitSolverConfig& config() const { return config_; }
  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }

  /// Current heap footprint in bytes (learnt-clause arena + watch lists +
  /// per-node state) — the quantity the Limits memory budgets cap, the
  /// circuit twin of Solver::memory_bytes().
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Debug walker (tests only; O(circuit + clause database)): the
  /// kernel's check_trail() (value slots against the trail, every reason,
  /// the watch invariants) plus, between solve() calls:
  ///  * every assigned gate is consistent with its fanins at fixpoint
  ///    (true gates have both fanins true; false gates have a false fanin
  ///    or both fanins unassigned — and in the latter case sit in the
  ///    frontier candidate heap);
  ///  * unassigned gates have no pending forced value (no missed
  ///    propagation);
  ///  * the frontier flag and heap agree.
  /// Prints each violation to stderr and returns false if there was one.
  [[nodiscard]] bool check_justification();

 private:
  friend class Cdcl<CircuitSolver>;

  /// Activity-snapshot max-heap entry of the frontier candidates. Priority
  /// is the gate's activity at push time — stale priorities and stale
  /// entries are both resolved lazily at pop, which keeps frontier
  /// maintenance O(log n) per transition without a position index.
  struct FrontierEntry {
    double act = 0.0;
    std::uint32_t gate = 0;
  };

  // --- propagation (the kernel calls these) ---
  Conflict propagate();
  /// Re-examines gate \p n against the current values of g/a/b, enqueuing
  /// every forced literal; returns the falsified implicit clause if any.
  Conflict eval_gate(std::uint32_t n);
  Conflict conflict_found(Conflict c);
  /// Unassigns the trail suffix above \p target back to front, returning
  /// re-exposed gates to the frontier.
  void backtrack(std::uint32_t target);
  /// Writes the literals of gate \p n's implicit clause \p tag to \p out:
  /// C1 = (!g, a), C2 = (!g, b), C3 = (g, !a, !b).
  std::uint32_t gate_clause(ClauseRef tag, std::uint32_t n, Lit* out) const;

  [[nodiscard]] bool is_frontier(std::uint32_t n) const;
  void frontier_push(std::uint32_t n);
  std::uint32_t frontier_pop();
  [[nodiscard]] bool goal_satisfied();
  Lit pick_decision();

  /// One-level self-subsumption of the first-UIP clause.
  void minimize(std::vector<Lit>& learnt);
  /// Kernel hook: frontier entries carry activity snapshots, scaled with
  /// every activity rescale.
  void on_activity_rescale(double factor) {
    for (FrontierEntry& e : frontier_) e.act *= factor;
  }

  Status finish_sat();
  Status search(const Limits& limits);

  CircuitSolverConfig config_;
  CircuitStats stats_;
  bool forced_sat_ = false;  ///< constant-true PO or tautological PO pair
  bool const_true_po_ = false;  ///< some PO is the constant TRUE literal

  // --- circuit structure (rebuilt by load) ---
  std::size_t num_nodes_ = 0;
  std::vector<std::uint8_t> is_gate_;  ///< live AND gate, per node
  std::vector<Lit> fanin0_;            ///< per node, valid when is_gate_
  std::vector<Lit> fanin1_;
  /// CSR fanout lists: gates containing node n as a fanin live in
  /// fanout_[fanout_off_[n] .. fanout_off_[n + 1]).
  std::vector<std::uint32_t> fanout_off_;
  std::vector<std::uint32_t> fanout_;
  std::vector<std::uint32_t> pi_nodes_;  ///< pis() order
  std::vector<Lit> goal_lits_;           ///< deduped non-constant PO literals
  std::size_t goal_sat_cache_ = 0;  ///< last goal literal seen true

  // The kernel's db_ holds the learnt clauses and the goal clause (when it
  // has >= 2 literals).

  /// Three heads over one trail: binaries drain first (cheapest), then the
  /// gate rules, then long learnt clauses — the circuit twin of the flat
  /// engine's binary-first ordering.
  std::size_t bin_qhead_ = 0;
  std::size_t gate_qhead_ = 0;
  std::size_t qhead_ = 0;

  // --- justification frontier ---
  std::vector<FrontierEntry> frontier_;    ///< binary max-heap
  std::vector<std::uint8_t> in_frontier_;  ///< exactly the heap membership

  std::vector<bool> witness_;
  std::vector<std::uint8_t> node_values_;
};

/// One-shot convenience mirroring solve_cnf(): load + solve + copy out.
struct CircuitSolveResult {
  Status status = Status::kUnknown;
  CircuitStats stats;
  std::vector<bool> witness;               ///< PI assignment (kSat)
  std::vector<std::uint8_t> node_values;   ///< per-node model (kSat)
};
CircuitSolveResult solve_circuit(const aig::Aig& g,
                                 const CircuitSolverConfig& config = {},
                                 const Limits& limits = {});

}  // namespace csat::sat

#endif  // CSAT_SAT_CIRCUIT_SOLVER_H
