#include "sat/portfolio.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>

#include "common/check.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "cnf/tseitin.h"

namespace csat::sat {

namespace {

constexpr std::size_t kNoWinner = PortfolioResult::kNoWinner;

/// Caller-supplied cancellation for a race whose arms' terminate slot is
/// taken by the internal \p stop flag: a watcher thread folds \p external
/// into \p stop, polling every millisecond until \p stop is set. Returns
/// an unjoinable thread when there is no external flag; otherwise the
/// caller sets \p stop and joins.
std::thread fold_terminate(const std::atomic<bool>* external,
                           std::atomic<bool>& stop) {
  if (external == nullptr) return {};
  return std::thread([external, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (external->load(std::memory_order_relaxed)) {
        stop.store(true);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

struct RaceOutcome {
  /// Each arm's verdict: kUnknown when it ran out of budget, was cancelled
  /// or threw.
  std::vector<Status> status;
  std::size_t winner = kNoWinner;  ///< kNoWinner when no arm was definitive
};

/// The race engine of both backends. Runs arm(i, limits) for every i < n:
/// arm 0 on the calling thread and each other arm on its own std::thread,
/// all joined before returning. The first definitive arm wins and cancels
/// the rest through Limits::terminate, into which the caller's terminate
/// flag is folded. An arm that throws (allocation failure, injected fault,
/// solver defect) is a kUnknown outcome — on a bare std::thread an escaped
/// exception would std::terminate the process — and the race goes on with
/// the others. \p deterministic turns cancellation off: every arm runs
/// under the caller's own limits to its verdict or budget, and the
/// lowest-index definitive arm wins. Definitive arms must agree.
RaceOutcome race(std::size_t n, const Limits& limits, bool deterministic,
                 const std::function<Status(std::size_t, const Limits&)>& arm) {
  RaceOutcome outcome;
  outcome.status.assign(n, Status::kUnknown);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> winner{kNoWinner};
  Limits arm_limits = limits;
  std::thread watcher;
  if (!deterministic) {
    arm_limits.terminate = &stop;
    watcher = fold_terminate(limits.terminate, stop);
  }

  const auto run = [&](std::size_t i) {
    Status status = Status::kUnknown;
    try {
      fault::maybe_throw(fault::Point::kWorkerThrow, "race arm");
      status = arm(i, arm_limits);
    } catch (...) {
      // status stays kUnknown: a crashed arm never crashes the process.
    }
    outcome.status[i] = status;
    if (status == Status::kUnknown || deterministic) return;
    std::size_t expected = kNoWinner;
    if (winner.compare_exchange_strong(expected, i)) stop.store(true);
  };
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) threads.emplace_back(run, i);
  run(0);
  for (auto& t : threads) t.join();
  stop.store(true);  // release the watcher when no arm ever finished
  if (watcher.joinable()) watcher.join();

  outcome.winner = winner.load();
  if (deterministic) {
    const auto first = std::find_if(
        outcome.status.begin(), outcome.status.end(),
        [](Status s) { return s != Status::kUnknown; });
    if (first != outcome.status.end())
      outcome.winner = static_cast<std::size_t>(first - outcome.status.begin());
  }
  // Soundness: every arm decides the same question, so any definitive arm
  // must agree with the winner.
  for (const Status s : outcome.status)
    CSAT_CHECK_MSG(s == Status::kUnknown || s == outcome.status[outcome.winner],
                   "race arms disagree on SAT/UNSAT");
  return outcome;
}

/// The CNF arm of the circuit race: Tseitin-encode, solve, and project any
/// model back onto the PIs as \p witness.
Status run_cnf_arm(const aig::Aig& g, const SolverConfig& config,
                   const Limits& limits, Stats& stats,
                   std::vector<bool>& witness) {
  const cnf::TseitinResult enc = cnf::tseitin_encode(g);
  if (enc.trivially_unsat) return Status::kUnsat;
  if (enc.trivially_sat) {
    // Some PO is constant true: any PI assignment witnesses SAT.
    witness.assign(g.pis().size(), false);
    return Status::kSat;
  }
  Solver solver(config);
  solver.add_formula(enc.cnf);
  const Status status = solver.solve(limits);
  stats = solver.stats();
  if (status == Status::kSat)
    witness = cnf::witness_from_model(g, enc, solver.model());
  return status;
}

}  // namespace

std::vector<SolverConfig> default_portfolio(std::size_t n, std::uint64_t seed) {
  std::vector<SolverConfig> configs;
  configs.reserve(n);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    SolverConfig c = (i % 2 == 0) ? SolverConfig::kissat_like()
                                  : SolverConfig::cadical_like();
    if (i > 0) {
      c.seed = splitmix64(state) | 1;
      // Alternate saved-phase polarity and inject a light random-decision
      // mix so workers explore different parts of the search space.
      c.default_phase = (i % 4) >= 2;
      if (i >= 2) c.random_decision_freq = 0.01 * static_cast<double>(i / 2);
      if (c.restart.kind == RestartConfig::Kind::kLuby)
        c.restart.luby_unit = 64 + 32 * static_cast<std::uint32_t>(i);
    }
    configs.push_back(c);
  }
  return configs;
}

PortfolioOptions make_portfolio_options(const SolverConfig& lead,
                                        std::size_t num_workers,
                                        const Limits& limits) {
  PortfolioOptions options;
  options.configs =
      default_portfolio(std::max<std::size_t>(1, num_workers), lead.seed);
  options.configs[0] = lead;
  options.limits = limits;
  return options;
}

PortfolioResult solve_portfolio(const Cnf& formula,
                                const PortfolioOptions& options) {
  const std::vector<SolverConfig> configs =
      options.configs.empty()
          ? default_portfolio(options.num_workers, options.seed)
          : options.configs;
  CSAT_CHECK_MSG(!configs.empty(), "portfolio needs at least one config");
  const std::size_t n = configs.size();

  PortfolioResult result;
  result.workers.resize(n);
  Stopwatch total;
  std::vector<std::vector<bool>> models(n);

  // Clause sharing needs a second worker to talk to, and deterministic
  // mode forbids it (import timing depends on thread scheduling).
  const bool share =
      options.sharing.enabled && n > 1 && !options.deterministic;
  std::optional<ClauseExchange> exchange;
  // Size the ring's flat literal buffer to the widest clause the sharing
  // filter lets through, so no published clause is ever dropped for width.
  if (share) {
    exchange.emplace(options.sharing.ring_capacity,
                     std::max<std::uint32_t>(1, options.sharing.max_size));
  }

  const RaceOutcome outcome = race(
      n, options.limits, options.deterministic,
      [&](std::size_t i, const Limits& limits) {
        Solver solver(configs[i]);
        solver.add_formula(formula);
        if (share) solver.connect_exchange(&*exchange, i, options.sharing);
        const Status status = solver.solve(limits);
        result.workers[i].stats = solver.stats();
        if (status == Status::kSat) models[i] = solver.model();
        return status;
      });
  result.seconds = total.seconds();
  for (std::size_t i = 0; i < n; ++i) {
    WorkerOutcome& w = result.workers[i];
    w.status = outcome.status[i];
    result.clauses_exported += w.stats.exported;
    result.clauses_imported += w.stats.imported;
  }
  if (outcome.winner == kNoWinner) {
    // Budget exhausted with no verdict: report the lead worker's stats so
    // budgeted runs show real search effort, comparable to a single solve
    // of configs[0] under the same limits, instead of zeros.
    result.stats = result.workers[0].stats;
    return result;
  }

  result.winner = outcome.winner;
  result.status = outcome.status[outcome.winner];
  result.stats = result.workers[outcome.winner].stats;
  result.model = std::move(models[outcome.winner]);
  if (result.status == Status::kSat)
    CSAT_CHECK_MSG(formula.satisfied_by(result.model),
                   "portfolio winner returned invalid model");
  return result;
}

CircuitRaceResult solve_circuit_race(const aig::Aig& g,
                                     const CircuitRaceOptions& options) {
  using Arm = CircuitRaceResult::Arm;
  CircuitRaceResult result;
  // Indexed by Arm: the circuit arm is race arm 0, so deterministic mode
  // prefers it.
  std::vector<bool> witness[2];
  const RaceOutcome outcome = race(
      2, options.limits, options.deterministic,
      [&](std::size_t arm, const Limits& limits) {
        if (static_cast<Arm>(arm) == Arm::kCnf)
          return run_cnf_arm(g, options.solver, limits, result.cnf_stats,
                             witness[arm]);
        CircuitSolver solver(options.circuit);
        solver.load(g);
        const Status status = solver.solve(limits);
        result.circuit_stats = solver.stats();
        if (status == Status::kSat) witness[arm] = solver.witness();
        return status;
      });
  result.circuit_status = outcome.status[0];
  result.cnf_status = outcome.status[1];
  if (outcome.winner != kNoWinner) {
    result.winner = static_cast<Arm>(outcome.winner);
    result.status = outcome.status[outcome.winner];
    result.witness = std::move(witness[outcome.winner]);
  }
  return result;
}

}  // namespace csat::sat
