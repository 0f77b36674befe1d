#include "sat/portfolio.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "common/check.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "cnf/tseitin.h"

namespace csat::sat {

namespace {

/// Caller-supplied cancellation for a race whose workers' terminate slot is
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
  CSAT_CHECK_MSG(options.proof == nullptr,
                 "proof emission requires the sequential backend: a portfolio "
                 "run's winner depends on a wall-clock race and (with sharing) "
                 "on clauses imported from other workers, neither of which "
                 "yields a checkable single-solver DRAT derivation");
  const std::size_t n = configs.size();

  PortfolioResult result;
  result.workers.resize(n);
  Stopwatch total;

  std::atomic<bool> stop{false};
  // Winner election: first definitive finisher claims the slot; in
  // deterministic mode the race is replaced by a lowest-index scan below.
  std::atomic<std::size_t> winner{PortfolioResult::kNoWinner};
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

  // Deterministic mode passes limits through untouched, so the external
  // flag reaches the workers directly.
  std::thread watcher;
  if (!options.deterministic)
    watcher = fold_terminate(options.limits.terminate, stop);

  auto run_worker = [&](std::size_t i) {
    // The whole body is exception-guarded: workers run on bare std::threads,
    // where an escaped exception would std::terminate the process. A worker
    // that throws (allocation failure, injected fault, solver defect)
    // records a faulted kUnknown outcome and the race continues on the
    // survivors.
    Stopwatch watch;
    try {
      fault::maybe_throw(fault::Point::kWorkerThrow, "portfolio worker");
      Solver solver(configs[i]);
      solver.add_formula(formula);
      if (share) solver.connect_exchange(&*exchange, i, options.sharing);
      Limits limits = options.limits;
      if (!options.deterministic) limits.terminate = &stop;
      const Status status = solver.solve(limits);
      result.workers[i].status = status;
      result.workers[i].stats = solver.stats();
      result.workers[i].seconds = watch.seconds();
      if (status == Status::kUnknown) return;
      if (status == Status::kSat) models[i] = solver.model();
      std::size_t expected = PortfolioResult::kNoWinner;
      if (winner.compare_exchange_strong(expected, i)) stop.store(true);
    } catch (...) {
      result.workers[i].status = Status::kUnknown;
      result.workers[i].faulted = true;
      result.workers[i].seconds = watch.seconds();
    }
  };

  if (n == 1) {
    run_worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) threads.emplace_back(run_worker, i);
    for (auto& t : threads) t.join();
  }

  stop.store(true);  // release the watcher when no worker ever finished
  if (watcher.joinable()) watcher.join();

  std::size_t win = winner.load();
  if (options.deterministic) {
    win = PortfolioResult::kNoWinner;
    for (std::size_t i = 0; i < n; ++i) {
      if (result.workers[i].status != Status::kUnknown) {
        win = i;
        break;
      }
    }
  }
  result.seconds = total.seconds();
  for (const WorkerOutcome& w : result.workers) {
    if (w.faulted) ++result.worker_faults;
    result.clauses_exported += w.stats.exported;
    result.clauses_imported += w.stats.imported;
    result.total_propagations += w.stats.propagations;
    result.total_binary_props += w.stats.binary_props;
    result.total_watcher_relocations += w.stats.watcher_relocations;
    result.total_watch_bytes += w.stats.watch_bytes;
  }
  if (win == PortfolioResult::kNoWinner) {
    // Budget exhausted with no verdict: report the lead worker's stats so
    // budgeted runs show real search effort, comparable to a single solve
    // of configs[0] under the same limits, instead of zeros.
    result.stats = result.workers[0].stats;
    return result;
  }

  result.winner = win;
  result.status = result.workers[win].status;
  result.stats = result.workers[win].stats;
  result.model = std::move(models[win]);
  if (result.status == Status::kSat)
    CSAT_CHECK_MSG(formula.satisfied_by(result.model),
                   "portfolio winner returned invalid model");
  // Soundness: any other definitive worker must agree with the winner.
  for (const WorkerOutcome& w : result.workers)
    if (w.status != Status::kUnknown)
      CSAT_CHECK_MSG(w.status == result.status,
                     "portfolio workers disagree on SAT/UNSAT");
  return result;
}

namespace {

/// The CNF arm of the circuit race, run to completion in the calling
/// thread: Tseitin-encode, solve, project any model back onto the PIs.
/// Fills cnf_status / cnf_stats / cnf_seconds and returns the PI witness
/// (empty unless SAT).
std::vector<bool> run_cnf_arm(const aig::Aig& g, const SolverConfig& config,
                              const Limits& limits, CircuitRaceResult& out) {
  Stopwatch watch;
  const cnf::TseitinResult enc = cnf::tseitin_encode(g);
  std::vector<bool> witness;
  if (enc.trivially_unsat) {
    out.cnf_status = Status::kUnsat;
  } else if (enc.trivially_sat) {
    // Some PO is constant true: any PI assignment witnesses SAT.
    out.cnf_status = Status::kSat;
    witness.assign(g.pis().size(), false);
  } else {
    Solver solver(config);
    solver.add_formula(enc.cnf);
    out.cnf_status = solver.solve(limits);
    out.cnf_stats = solver.stats();
    if (out.cnf_status == Status::kSat)
      witness = cnf::witness_from_model(g, enc, solver.model());
  }
  out.cnf_seconds = watch.seconds();
  return witness;
}

}  // namespace

CircuitRaceResult solve_circuit_race(const aig::Aig& g,
                                     const CircuitRaceOptions& options) {
  CircuitRaceResult result;
  Stopwatch total;
  using Arm = CircuitRaceResult::Arm;

  std::vector<bool> circuit_witness;
  std::vector<bool> cnf_witness;

  // One body per arm for both modes. Each is exception-guarded: racing
  // arms run on bare std::threads, where an escaped exception would
  // std::terminate the process, and a crashed arm in either mode degrades
  // to kUnknown instead of unwinding into the caller.
  std::atomic<std::uint64_t> arm_faults{0};
  const auto circuit_arm = [&](const Limits& limits) {
    Stopwatch watch;
    try {
      fault::maybe_throw(fault::Point::kWorkerThrow, "circuit race arm");
      CircuitSolver solver(options.circuit);
      solver.load(g);
      result.circuit_status = solver.solve(limits);
      result.circuit_stats = solver.stats();
      if (result.circuit_status == Status::kSat)
        circuit_witness = solver.witness();
    } catch (...) {
      result.circuit_status = Status::kUnknown;
      arm_faults.fetch_add(1, std::memory_order_relaxed);
    }
    result.circuit_seconds = watch.seconds();
  };
  const auto cnf_arm = [&](const Limits& limits) {
    try {
      fault::maybe_throw(fault::Point::kWorkerThrow, "cnf race arm");
      cnf_witness = run_cnf_arm(g, options.solver, limits, result);
    } catch (...) {
      result.cnf_status = Status::kUnknown;
      arm_faults.fetch_add(1, std::memory_order_relaxed);
    }
  };

  if (options.deterministic) {
    // Sequential, no cancellation: both arms run to their own verdict or
    // budget, and the circuit arm's verdict is preferred when definitive.
    circuit_arm(options.limits);
    cnf_arm(options.limits);
  } else {
    std::atomic<bool> stop{false};
    std::atomic<int> winner{-1};
    std::thread watcher = fold_terminate(options.limits.terminate, stop);
    Limits limits = options.limits;
    limits.terminate = &stop;

    auto claim = [&](Arm arm, Status status) {
      if (status == Status::kUnknown) return;
      int expected = -1;
      if (winner.compare_exchange_strong(expected, static_cast<int>(arm)))
        stop.store(true);
    };
    std::thread circuit_thread([&] {
      circuit_arm(limits);
      claim(Arm::kCircuit, result.circuit_status);
    });
    std::thread cnf_thread([&] {
      cnf_arm(limits);
      claim(Arm::kCnf, result.cnf_status);
    });
    circuit_thread.join();
    cnf_thread.join();
    stop.store(true);  // release the watcher when neither arm ever finished
    if (watcher.joinable()) watcher.join();
    if (winner.load() >= 0) result.winner = static_cast<Arm>(winner.load());
  }
  result.arm_faults = arm_faults.load();

  // Deterministic mode (and the no-election edge) prefers the circuit arm.
  if (result.winner == Arm::kNone) {
    if (result.circuit_status != Status::kUnknown) {
      result.winner = Arm::kCircuit;
    } else if (result.cnf_status != Status::kUnknown) {
      result.winner = Arm::kCnf;
    }
  }
  if (result.winner != Arm::kNone) {
    result.status = result.winner == Arm::kCircuit ? result.circuit_status
                                                   : result.cnf_status;
    result.witness = result.winner == Arm::kCircuit ? std::move(circuit_witness)
                                                    : std::move(cnf_witness);
  }
  // Soundness: when both arms reach a verdict they must agree — the arms
  // decide the same question over different encodings.
  if (result.circuit_status != Status::kUnknown &&
      result.cnf_status != Status::kUnknown)
    CSAT_CHECK_MSG(result.circuit_status == result.cnf_status,
                   "circuit and CNF arms disagree on SAT/UNSAT");
  result.seconds = total.seconds();
  return result;
}

}  // namespace csat::sat
