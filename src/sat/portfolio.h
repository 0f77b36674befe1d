#ifndef CSAT_SAT_PORTFOLIO_H
#define CSAT_SAT_PORTFOLIO_H

/// \file portfolio.h
/// The multi-solver backends: race N diversified CDCL configurations on the
/// same formula (solve_portfolio), or the circuit-native core against
/// Tseitin + CDCL on the same AIG (solve_circuit_race).
///
/// Both run on one race engine: each arm is a private solver, arm 0 runs
/// on the calling thread and every other arm on its own std::thread, and
/// the first definitive arm wins and cancels the rest through
/// Limits::terminate. An arm that throws counts as kUnknown. Every arm is
/// a sound decision procedure for the same question, so whichever finishes
/// first yields the verdict any other would eventually reach — the race
/// affects wall-clock time and the witnessing model, never the answer.
/// With `deterministic` set, cancellation (and the portfolio's clause
/// sharing) is off, every arm runs to its own verdict or budget, and the
/// lowest-index definitive arm is reported, making the full result
/// (winner, stats, model) a pure function of input + options.
///
/// Portfolio workers may also share low-LBD learnt clauses through a
/// bounded exchange ring (sat/clause_exchange.h), imported at restart
/// boundaries (HordeSat-style); every shared clause is implied by the
/// common formula.

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
  /// kUnknown = cancelled, out of budget, or died on an exception (which
  /// the race swallows: a crashed worker never crashes the process).
  Status status = Status::kUnknown;
  Stats stats;  ///< this worker's full search counters
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
  double seconds = 0.0;  ///< wall-clock time of the whole race
};

/// Races the portfolio on \p formula. Worker 0 runs on the calling thread
/// and every other worker on its own std::thread, all joined before
/// returning (no threads or references to \p formula outlive the call).
/// Thread-safe with respect to other concurrent solves (workers share
/// nothing but the stop flag and, with sharing, the exchange ring).
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
  /// Disable first-finisher cancellation: both arms run to their own
  /// verdict or budget, and the circuit arm (index 0) is reported when
  /// definitive, else the CNF arm. Reproducible bit-for-bit; costs the
  /// loser's runtime.
  bool deterministic = false;
};

struct CircuitRaceResult {
  enum class Arm : std::uint8_t { kCircuit = 0, kCnf = 1, kNone = 2 };

  Status status = Status::kUnknown;
  Arm winner = Arm::kNone;  ///< kNone when both arms exhausted their budget
  /// Per-arm verdicts (kUnknown = cancelled, out of budget or died on an
  /// exception) and counters.
  Status circuit_status = Status::kUnknown;
  Status cnf_status = Status::kUnknown;
  CircuitStats circuit_stats;
  Stats cnf_stats;
  /// PI assignment (indexed by PI order) when status == kSat, regardless of
  /// which arm won — the CNF arm's model is projected back onto the PIs, so
  /// callers see one witness format.
  std::vector<bool> witness;
};

/// Races CircuitSolver against tseitin_encode + Solver on the CSAT instance
/// "some PO of g is 1". First definitive arm wins and cancels the other;
/// when both finish definitively their verdicts are cross-checked (a
/// disagreement is a solver bug and aborts). The circuit arm runs on the
/// calling thread, the CNF arm on its own thread, joined before returning.
[[nodiscard]] CircuitRaceResult solve_circuit_race(
    const aig::Aig& g, const CircuitRaceOptions& options = {});

}  // namespace csat::sat

#endif  // CSAT_SAT_PORTFOLIO_H
