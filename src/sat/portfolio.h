#ifndef CSAT_SAT_PORTFOLIO_H
#define CSAT_SAT_PORTFOLIO_H

/// \file portfolio.h
/// Multi-threaded portfolio solving: race N diversified CDCL configurations
/// on the same formula, first definitive answer wins.
///
/// Each worker runs a private Solver; cross-thread traffic is the atomic
/// stop flag wired through Limits::terminate, the winner election, and —
/// when sharing is enabled — a bounded clause-exchange ring
/// (sat/clause_exchange.h) through which workers publish low-LBD learnt
/// clauses and import each other's at restart boundaries (HordeSat-style).
/// Because every configuration is a sound decision procedure and every
/// shared clause is implied by the common formula, whichever worker
/// finishes first yields the same SAT/UNSAT verdict any other would
/// eventually reach — the race affects wall-clock time and the witnessing
/// model, never the answer. With `deterministic` set, cancellation AND
/// clause sharing are disabled and the lowest-index definitive worker is
/// reported, making the full result (winner, stats, model) a pure function
/// of formula + options.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "aig/aig.h"
#include "cnf/cnf.h"
#include "sat/circuit_solver.h"
#include "sat/clause_exchange.h"
#include "sat/solver.h"

namespace csat::sat {

struct PortfolioOptions {
  /// Configurations to race; when empty, default_portfolio(num_workers,
  /// seed) is used.
  std::vector<SolverConfig> configs;
  /// Worker count used only when configs is empty.
  std::size_t num_workers = 4;
  /// Seed for default diversification (ignored when configs is non-empty).
  std::uint64_t seed = 91648253;
  /// Per-worker budget. A caller-supplied Limits::terminate cancels the
  /// whole race (the portfolio folds it into its internal stop flag).
  Limits limits;
  /// Disable first-finisher cancellation: every worker runs to its own
  /// verdict or budget, and the lowest-index definitive worker is the
  /// winner. Reproducible bit-for-bit; costs the losers' runtime and
  /// disables clause sharing.
  bool deterministic = false;
  /// Cross-worker learnt-clause sharing (on by default for real races).
  ClauseSharingOptions sharing;
  /// Proof emission is deliberately unsupported here and solve_portfolio
  /// hard-fails when this is non-null: a DRAT stream certifies ONE
  /// solver's derivation sequence, but a portfolio winner's run interleaves
  /// imported clauses whose derivations live in other workers' logs (and
  /// even without sharing, which worker answers is a wall-clock race, so
  /// the proof would not be reproducible). Callers that need a checkable
  /// UNSAT must use the sequential backend. The field exists so the
  /// refusal is typed and loud instead of a silently ignored option.
  ProofTracer* proof = nullptr;
};

/// Diversified configuration family: alternating kissat-like / cadical-like
/// presets with per-worker seeds, phases and random-decision frequencies.
/// Deterministic in (n, seed); configs[0] is the unmodified kissat-like
/// preset so a 1-worker portfolio equals the default single solver.
[[nodiscard]] std::vector<SolverConfig> default_portfolio(
    std::size_t n, std::uint64_t seed = 91648253);

/// PortfolioOptions racing \p num_workers default-diversified configs (at
/// least 1) with \p lead as the unmodified index-0 configuration —
/// diversification is seeded from lead.seed, so backends agree on the
/// answer and differ only in wall-clock time. The shared wiring of the
/// pipeline's portfolio backend and the solve server; callers layer
/// deterministic/sharing settings on top.
[[nodiscard]] PortfolioOptions make_portfolio_options(const SolverConfig& lead,
                                                      std::size_t num_workers,
                                                      const Limits& limits);

struct WorkerOutcome {
  Status status = Status::kUnknown;  ///< kUnknown = cancelled or out of budget
  Stats stats;          ///< this worker's full search counters
  double seconds = 0.0;  ///< wall-clock time this worker ran
  /// The worker died on an exception (allocation failure, injected fault,
  /// solver defect). The race swallows it — a crashed worker is just a
  /// kUnknown outcome, never a crashed process — because workers run on
  /// bare std::threads where an escaped exception would std::terminate.
  bool faulted = false;
};

struct PortfolioResult {
  static constexpr std::size_t kNoWinner =
      std::numeric_limits<std::size_t>::max();

  Status status = Status::kUnknown;
  /// Index (into the raced configs) of the worker whose verdict is
  /// reported; kNoWinner when every worker exhausted its budget.
  std::size_t winner = kNoWinner;
  /// Winner's statistics; with no winner, the lead (index-0) worker's
  /// stats, so budgeted runs report real search effort.
  Stats stats;
  /// Winner's model when status == kSat.
  std::vector<bool> model;
  /// Per-worker outcomes, aligned with the raced configs. Each worker's
  /// stats carry its exported/imported clause counts when sharing ran.
  std::vector<WorkerOutcome> workers;
  /// Totals over all workers (zero when sharing was disabled).
  std::uint64_t clauses_exported = 0;
  std::uint64_t clauses_imported = 0;
  /// Search-effort totals over all workers, winners and losers alike —
  /// aggregate BCP throughput of the race is total_propagations / seconds.
  std::uint64_t total_propagations = 0;
  std::uint64_t total_binary_props = 0;
  std::uint64_t total_watcher_relocations = 0;
  /// Summed watch-storage footprint gauges at each worker's exit.
  std::uint64_t total_watch_bytes = 0;
  /// Workers that died on an exception (each also reports a faulted
  /// kUnknown outcome in workers[]). The answer stays sound as long as any
  /// worker survives; all-faulted races report kUnknown.
  std::uint64_t worker_faults = 0;
  double seconds = 0.0;  ///< wall-clock time of the whole race
};

/// Races the portfolio on \p formula. Blocks the calling thread, spawning
/// one std::thread per raced config and joining them all before returning
/// (no threads or references to \p formula outlive the call). Thread-safe
/// with respect to other concurrent solves (workers share nothing but the
/// stop flag).
[[nodiscard]] PortfolioResult solve_portfolio(const Cnf& formula,
                                              const PortfolioOptions& options = {});

// ---------------------------------------------------------------------------
// Heterogeneous circuit-vs-CNF race.
//
// Unlike the homogeneous portfolio above, the two arms of this race search
// DIFFERENT variable spaces: the circuit arm assigns AIG node ids, the CNF
// arm assigns Tseitin variables. A learnt clause from one arm is
// meaningless to the other without a translation layer, so clause sharing
// is structurally disabled here — the only cross-thread traffic is the
// stop flag and the winner election.

struct CircuitRaceOptions {
  /// CNF arm: tseitin_encode(g) solved by the flat-watch CDCL Solver.
  SolverConfig solver;
  /// Circuit arm: CircuitSolver running directly on the AIG. Callers that
  /// want the arms to share tuning derive this with
  /// CircuitSolverConfig::from_cnf(solver).
  CircuitSolverConfig circuit;
  /// Per-arm budget. A caller-supplied Limits::terminate cancels the whole
  /// race (folded into the internal stop flag, as in solve_portfolio).
  Limits limits;
  /// Run the arms sequentially (circuit first) with no cancellation and
  /// report the circuit arm's verdict when definitive, else the CNF arm's.
  /// Reproducible bit-for-bit; costs the loser's runtime.
  bool deterministic = false;
};

struct CircuitRaceResult {
  enum class Arm : std::uint8_t { kCircuit = 0, kCnf = 1, kNone = 2 };

  Status status = Status::kUnknown;
  Arm winner = Arm::kNone;  ///< kNone when both arms exhausted their budget
  /// Per-arm verdicts (kUnknown = cancelled or out of budget) and counters.
  Status circuit_status = Status::kUnknown;
  Status cnf_status = Status::kUnknown;
  CircuitStats circuit_stats;
  Stats cnf_stats;
  double circuit_seconds = 0.0;
  double cnf_seconds = 0.0;
  /// Arms that died on an exception — reported as a kUnknown verdict for
  /// that arm, never rethrown (the arms run on bare std::threads).
  std::uint64_t arm_faults = 0;
  /// PI assignment (indexed by PI order) when status == kSat, regardless of
  /// which arm won — the CNF arm's model is projected back onto the PIs, so
  /// callers see one witness format.
  std::vector<bool> witness;
  double seconds = 0.0;  ///< wall-clock time of the whole race
};

/// Races CircuitSolver against tseitin_encode + Solver on the CSAT instance
/// "some PO of g is 1". First definitive arm wins and cancels the other;
/// when both finish definitively their verdicts are cross-checked (a
/// disagreement is a solver bug and aborts). Blocks the calling thread and
/// joins both arms before returning.
[[nodiscard]] CircuitRaceResult solve_circuit_race(
    const aig::Aig& g, const CircuitRaceOptions& options = {});

}  // namespace csat::sat

#endif  // CSAT_SAT_PORTFOLIO_H
