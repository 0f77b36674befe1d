// Robustness-layer tests (PR 10): hostile-input hardening of the DIMACS and
// AIGER readers (every failure is a typed error, never a crash or an
// unbounded allocation), budget parity between the CNF and circuit solvers
// (terminate flag, wall-clock, memory caps), deadline cancellation through
// the circuit race and the solve service, admission control, and the memout
// protocol path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aig/aiger_io.h"
#include "cnf/cnf_to_aig.h"
#include "cnf/dimacs.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/solve_server.h"
#include "gen/miter.h"
#include "gen/pigeonhole.h"
#include "sat/circuit_solver.h"
#include "sat/portfolio.h"
#include "sat/solver.h"

namespace csat {
namespace {

using core::ServerRequest;
using core::ServerResponse;
using core::SolveServer;
using gen::pigeonhole;

// --- parser hardening -------------------------------------------------------

/// Feeds \p text to the DIMACS reader and requires a typed outcome: either a
/// parsed formula or DimacsError. Anything else (std::bad_alloc from a
/// hostile header, a crash under ASan) fails the test.
void expect_typed_dimacs(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)cnf::read_dimacs(in);
  } catch (const cnf::DimacsError&) {
    // expected failure shape
  }
}

TEST(ParserHardening, DimacsTruncationSweep) {
  // Truncating a valid document at every byte boundary must never escape
  // the DimacsError envelope.
  const std::string doc =
      "c comment line\np cnf 4 3\n1 -2 0\n-3 4 0\n2 3 -4 0\n";
  for (std::size_t n = 0; n <= doc.size(); ++n) {
    SCOPED_TRACE("prefix length " + std::to_string(n));
    expect_typed_dimacs(doc.substr(0, n));
  }
}

TEST(ParserHardening, DimacsHostileInputs) {
  const std::vector<std::string> hostile = {
      "p cnf 2000000000 1\n1 0\n",     // header over the allocation cap
      "p cnf 3 4000000000\n",          // clause count over the cap
      "p cnf -1 2\n",                  // negative counts
      "p cnf 3 1\np cnf 3 1\n1 0\n",   // duplicate header
      "p cnf 3 1\n12x 0\n",            // trailing garbage (stoi accepted it)
      "p cnf 3 1\n-2147483648 0\n",    // INT_MIN: negation is UB upstream
      "p cnf 3 1\n99 0\n",             // literal beyond declared vars
      "p cnf 3 2\n1 0\n",              // clause count mismatch
      "p cnf 3 1\n1 2\n",              // unterminated clause
      "1 2 0\n",                       // literal before header
      "p dnf 3 1\n1 0\n",              // wrong format tag
      "\x01\x02\xff garbage \xfe\n",   // binary noise
  };
  for (const auto& doc : hostile) {
    SCOPED_TRACE(doc.substr(0, 32));
    std::istringstream in(doc);
    EXPECT_THROW((void)cnf::read_dimacs(in), cnf::DimacsError);
  }
}

/// AIGER twin of expect_typed_dimacs.
void expect_typed_aiger(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)aig::read_aiger(in);
  } catch (const aig::AigerError&) {
    // expected failure shape
  }
}

TEST(ParserHardening, AigerTruncationSweep) {
  aig::Aig g = cnf::cnf_to_aig(pigeonhole(3));
  std::ostringstream ascii, binary;
  aig::write_aiger_ascii(g, ascii);
  aig::write_aiger_binary(g, binary);
  for (const std::string& doc : {ascii.str(), binary.str()}) {
    for (std::size_t n = 0; n <= doc.size(); ++n) {
      SCOPED_TRACE("prefix length " + std::to_string(n));
      expect_typed_aiger(doc.substr(0, n));
    }
  }
}

TEST(ParserHardening, AigerBitFlipSweep) {
  // Seeded single-byte corruptions of a valid document: every outcome must
  // be a parse or a typed error. ASan watches for the historical failure
  // mode (out-of-bounds var2lit writes from hostile literals).
  aig::Aig g = cnf::cnf_to_aig(pigeonhole(3));
  std::ostringstream ascii;
  aig::write_aiger_ascii(g, ascii);
  const std::string doc = ascii.str();
  Rng rng(0xF417);
  for (int round = 0; round < 400; ++round) {
    std::string mutated = doc;
    const auto pos = static_cast<std::size_t>(rng.next_below(doc.size()));
    mutated[pos] = static_cast<char>(rng.next_below(256));
    SCOPED_TRACE("round " + std::to_string(round));
    expect_typed_aiger(mutated);
  }
}

TEST(ParserHardening, AigerHostileInputs) {
  const std::vector<std::string> hostile = {
      "aag 4294967295 1 0 1 1\n",          // max_var over the size cap
      "aag 100 99 0 1 99\n",               // declared counts exceed max_var
      "aag 5 3000000000 0 1 1294967295\n",  // num_in + num_and wraps uint32
      "aag 3 1 1 1 1\n",                   // latches unsupported
      "xyz 1 1 0 0 0\n",                   // bad magic
      "aag 3 1 0 1 2\n200\n",              // input literal out of range
      "aag 3 1 0 1 2\n0\n",                // constant as input literal
      "aag 3 1 0 1 1\n2\n6\n200 2 2\n",    // AND lhs out of range
      "aag 3 1 0 1 1\n2\n6\n6 6 2\n",      // AND not topologically ordered
  };
  for (const auto& doc : hostile) {
    SCOPED_TRACE(doc.substr(0, 32));
    std::istringstream in(doc);
    EXPECT_THROW((void)aig::read_aiger(in), aig::AigerError);
  }
}

// --- budget parity: terminate, wall-clock, memory ---------------------------

TEST(BudgetParity, CircuitSolverHonorsPresetTerminate) {
  sat::CircuitSolver solver;
  solver.load(cnf::cnf_to_aig(pigeonhole(20)));  // far beyond any budget
  std::atomic<bool> stop{true};
  sat::Limits limits;
  limits.terminate = &stop;
  EXPECT_EQ(solver.solve(limits), sat::Status::kUnknown);
}

TEST(BudgetParity, CircuitSolverHonorsWallClock) {
  sat::CircuitSolver solver;
  solver.load(cnf::cnf_to_aig(pigeonhole(20)));
  sat::Limits limits;
  limits.max_seconds = 0.2;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(solver.solve(limits), sat::Status::kUnknown);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Generous bound: the assertion is "stopped because of the budget", not a
  // latency SLO — sanitizer builds run this at a fraction of native speed.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
}

TEST(BudgetParity, ResumedSolveGetsFreshBudget) {
  // sat::Limits is a per-solve() budget on both cores: a second budgeted
  // solve() after a budget stop gets the same conflict budget again
  // instead of stopping at once on the counters of the first call.
  sat::Limits limits;
  limits.max_conflicts = 50;
  const auto expect_fresh = [](std::uint64_t before, std::uint64_t after,
                               const char* core) {
    EXPECT_GE(after - before, 50u) << core;
    EXPECT_LE(after - before, 51u) << core;
  };
  {
    sat::Solver solver;
    solver.add_formula(pigeonhole(7));
    ASSERT_EQ(solver.solve(limits), sat::Status::kUnknown);
    const std::uint64_t first = solver.stats().conflicts;
    ASSERT_EQ(solver.solve(limits), sat::Status::kUnknown);
    expect_fresh(first, solver.stats().conflicts, "Solver");
  }
  {
    sat::CircuitSolver solver;
    solver.load(cnf::cnf_to_aig(pigeonhole(7)));
    ASSERT_EQ(solver.solve(limits), sat::Status::kUnknown);
    const std::uint64_t first = solver.stats().conflicts;
    ASSERT_EQ(solver.solve(limits), sat::Status::kUnknown);
    expect_fresh(first, solver.stats().conflicts, "CircuitSolver");
  }
}

TEST(BudgetParity, HardMemoryCapStopsBothSolversReusably) {
  // A 1-byte hard cap trips the very first budget checkpoint: kUnknown +
  // memout_stops, never an allocation death.
  {
    sat::Solver solver;
    solver.add_formula(pigeonhole(6));
    sat::Limits limits;
    limits.hard_memory_bytes = 1;
    EXPECT_EQ(solver.solve(limits), sat::Status::kUnknown);
    EXPECT_EQ(solver.stats().memout_stops, 1u);
  }
  {
    sat::CircuitSolver solver;
    solver.load(cnf::cnf_to_aig(pigeonhole(6)));
    sat::Limits limits;
    limits.hard_memory_bytes = 1;
    EXPECT_EQ(solver.solve(limits), sat::Status::kUnknown);
    EXPECT_EQ(solver.stats().memout_stops, 1u);
  }
}

TEST(BudgetParity, SoftMemoryCapForcesReductions) {
  // A 1-byte soft cap (no hard cap) cannot stop the search; it must instead
  // force learnt-DB reductions on the budget cadence while the verdict still
  // lands. Proves the soft rung degrades instead of failing.
  sat::Solver solver;
  solver.add_formula(pigeonhole(7));
  sat::Limits limits;
  limits.soft_memory_bytes = 1;
  EXPECT_EQ(solver.solve(limits), sat::Status::kUnsat);
  EXPECT_GE(solver.stats().memory_reductions, 1u);
  EXPECT_EQ(solver.stats().memout_stops, 0u);
}

TEST(BudgetParity, SoftMemoryReductionsKeepTheConflictSchedule) {
  // A reduction the soft cap forces leaves the conflict-count schedule
  // alone on both cores: every other reduction sits on a threshold of the
  // schedule t0 = 300, tk = tk-1 + 300 + 50k.
  const auto scheduled = [](std::uint64_t conflicts) {
    std::uint64_t count = 0;
    for (std::uint64_t t = 300; t <= conflicts; t += 300 + 50 * count)
      ++count;
    return count;
  };
  sat::Limits limits;
  limits.soft_memory_bytes = 1;
  limits.max_conflicts = 20000;
  const aig::Aig miter = gen::make_adder_miter(40);
  {
    sat::SolverConfig config;
    config.reduce_first = 300;
    config.reduce_increment = 50;
    const sat::Stats s =
        sat::solve_cnf(cnf::tseitin_encode(miter).cnf, config, limits).stats;
    EXPECT_GE(s.memory_reductions, 1u);
    EXPECT_EQ(s.reductions, s.memory_reductions + scheduled(s.conflicts));
  }
  {
    sat::CircuitSolverConfig config;
    config.reduce_first = 300;
    config.reduce_increment = 50;
    const sat::CircuitStats s = sat::solve_circuit(miter, config, limits).stats;
    EXPECT_GE(s.memory_reductions, 1u);
    EXPECT_EQ(s.reductions, s.memory_reductions + scheduled(s.conflicts));
  }
}

TEST(BudgetParity, MemoryGaugeIsLiveAndMonotoneUnderLoad) {
  // A fresh solver owns no heap yet (the gauge reports capacities, all
  // zero); loading a formula must move it.
  sat::Solver solver;
  const std::uint64_t empty = solver.memory_bytes();
  solver.add_formula(pigeonhole(7));
  EXPECT_GT(solver.memory_bytes(), empty);

  sat::CircuitSolver circuit;
  circuit.load(cnf::cnf_to_aig(pigeonhole(5)));
  EXPECT_GT(circuit.memory_bytes(), 0u);
}

TEST(BudgetParity, WallClockBudgetCoversSimplify) {
  // Limits::max_seconds budgets the whole solve stage: cnf::simplify stops
  // at its first clock check past the budget with a partial formula, and
  // the solver stops at its first checkpoint instead of getting a fresh
  // max_seconds of its own.
  core::PipelineOptions options;
  options.mode = core::PipelineMode::kBaseline;
  options.limits.max_seconds = 0.02;
  const core::PipelineResult r =
      core::solve_instance(gen::make_adder_miter(256), options);
  if (!r.simplify_stats.budget_exhausted &&
      r.simplify_stats.seconds <= options.limits.max_seconds)
    GTEST_SKIP() << "simplify finished in " << r.simplify_stats.seconds
                 << " s, inside the budget";
  EXPECT_TRUE(r.simplify_stats.budget_exhausted);
  // Stopping costs one clock check past the budget: about 0.01 s in an
  // optimized build and 0.5 s under ThreadSanitizer, where a full run
  // takes 17-19 s (an optimized build's full run is about 0.14 s).
  EXPECT_LT(r.simplify_stats.seconds, 2.0);
  EXPECT_EQ(r.status, sat::Status::kUnknown);
  EXPECT_LE(r.solver_stats.conflicts, 1u);
}

// --- deadline cancellation through the race and the service -----------------

TEST(DeadlineCancellation, CircuitRaceTerminateStopsBothArms) {
  // A timer thread flips the caller's terminate flag mid-race on an
  // instance neither arm can finish; both arms must come back kUnknown and
  // the race must join promptly instead of leaking a running thread.
  const aig::Aig g = cnf::cnf_to_aig(pigeonhole(20));
  std::atomic<bool> stop{false};
  sat::CircuitRaceOptions options;
  options.limits.terminate = &stop;
  std::thread timer([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop.store(true, std::memory_order_relaxed);
  });
  const auto start = std::chrono::steady_clock::now();
  const sat::CircuitRaceResult result = sat::solve_circuit_race(g, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  timer.join();
  EXPECT_EQ(result.status, sat::Status::kUnknown);
  EXPECT_EQ(result.circuit_status, sat::Status::kUnknown);
  EXPECT_EQ(result.cnf_status, sat::Status::kUnknown);
  EXPECT_EQ(result.winner, sat::CircuitRaceResult::Arm::kNone);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
}

/// Collects every response the server emits, keyed lookup by id.
struct ResponseLog {
  std::mutex m;
  std::vector<ServerResponse> responses;

  core::ServerOptions attach(core::ServerOptions opt) {
    opt.on_response = [this](const ServerResponse& r) {
      const std::lock_guard<std::mutex> lock(m);
      responses.push_back(r);
    };
    return opt;
  }

  ServerResponse get(const std::string& id) {
    const std::lock_guard<std::mutex> lock(m);
    for (const auto& r : responses)
      if (r.id == id) return r;
    ADD_FAILURE() << "no response with id " << id;
    return {};
  }

  std::size_t size() {
    const std::lock_guard<std::mutex> lock(m);
    return responses.size();
  }
};

/// "solve <extra> cnf <literals>" line for a crafted formula — the inline
/// route lets the service tests use the resolution-hard pigeonhole family,
/// which no generated-family spec covers.
std::string inline_request(const cnf::Cnf& f, const std::string& extra) {
  std::string line = "solve ";
  if (!extra.empty()) line += extra + " ";
  line += "cnf";
  for (std::size_t i = 0; i < f.num_clauses(); ++i) {
    for (cnf::Lit l : f.clause(i)) {
      line += ' ';
      line += std::to_string(l.to_dimacs());
    }
    line += " 0";
  }
  return line;
}

TEST(DeadlineCancellation, ServerDeadlineYieldsTimeoutOnEveryBackend) {
  ResponseLog log;
  core::ServerOptions opt;
  opt.num_workers = 4;  // one per backend: none may expire in the queue
  opt.cache_capacity = 0;  // identical payloads must each run the deadline
  opt.default_portfolio_size = 2;
  SolveServer server(log.attach(opt));

  const cnf::Cnf hard = pigeonhole(20);
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"seq", "backend=sequential"},
      {"pf", "backend=portfolio portfolio=2"},
      {"circ", "backend=circuit"},
      {"race", "backend=circuit-race"},
  };
  for (const auto& [id, backend] : shapes) {
    std::string error;
    auto request = SolveServer::parse_request(
        inline_request(hard,
                       backend + " deadline_ms=300 simplify=off "
                       "expect=timeout"),
        error);
    ASSERT_TRUE(request.has_value()) << error;
    request->id = id;
    ASSERT_TRUE(server.submit(std::move(*request)));
  }
  server.drain();
  for (const auto& [id, backend] : shapes) {
    const ServerResponse r = log.get(id);
    EXPECT_TRUE(r.timed_out) << id << " (" << backend << ")";
    EXPECT_EQ(r.status, sat::Status::kUnknown) << id;
    EXPECT_TRUE(r.error.empty()) << id << ": " << r.error;
    EXPECT_TRUE(r.expect_ok) << id;
  }
  EXPECT_EQ(server.counters().timeouts, shapes.size());
  EXPECT_EQ(server.counters().expect_failures, 0u);
  server.stop();
}

TEST(DeadlineCancellation, ExpiredBeforeDequeueStillAnswersTimeout) {
  // One worker pinned on a hard solve; a second request whose deadline
  // expires while it waits in the queue must be answered TIMEOUT at
  // dequeue, without building the instance.
  ResponseLog log;
  core::ServerOptions opt;
  opt.num_workers = 1;
  opt.cache_capacity = 0;
  SolveServer server(log.attach(opt));

  const cnf::Cnf hard = pigeonhole(20);
  std::string error;
  auto blocker = SolveServer::parse_request(
      inline_request(hard, "deadline_ms=1500 simplify=off"), error);
  ASSERT_TRUE(blocker.has_value()) << error;
  blocker->id = "blocker";
  ASSERT_TRUE(server.submit(std::move(*blocker)));

  auto starved = SolveServer::parse_request(
      inline_request(hard, "deadline_ms=100 simplify=off"), error);
  ASSERT_TRUE(starved.has_value()) << error;
  starved->id = "starved";
  ASSERT_TRUE(server.submit(std::move(*starved)));

  server.drain();
  const ServerResponse r = log.get("starved");
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.status, sat::Status::kUnknown);
  EXPECT_EQ(server.counters().timeouts, 2u);
  server.stop();
}

TEST(DeadlineCancellation, ParkedDuplicateAnswersAtItsOwnDeadline) {
  // A duplicate parked behind a leader with a later deadline must answer
  // TIMEOUT at its own deadline, not when the leader gives up.
  using Clock = std::chrono::steady_clock;
  std::mutex m;
  std::vector<ServerResponse> answered;  // completion order
  Clock::time_point duplicate_answered{};
  core::ServerOptions opt;
  opt.num_workers = 2;
  opt.on_response = [&](const ServerResponse& r) {
    const std::lock_guard<std::mutex> lock(m);
    answered.push_back(r);
    if (r.id == "duplicate") duplicate_answered = Clock::now();
  };
  SolveServer server(opt);

  const cnf::Cnf hard = pigeonhole(20);
  const auto submit = [&](const std::string& id, const std::string& extra) {
    std::string error;
    auto request = SolveServer::parse_request(inline_request(hard, extra), error);
    ASSERT_TRUE(request.has_value()) << error;
    request->id = id;
    ASSERT_TRUE(server.submit(std::move(*request)));
  };
  submit("leader", "deadline_ms=2000 simplify=off");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const Clock::time_point submitted = Clock::now();
  submit("duplicate", "deadline_ms=200 simplify=off");
  server.drain();
  server.stop();

  ASSERT_EQ(answered.size(), 2u);
  EXPECT_EQ(answered[0].id, "duplicate");
  EXPECT_LT(duplicate_answered - submitted, std::chrono::seconds(1));
  for (const ServerResponse& r : answered) {
    EXPECT_TRUE(r.timed_out) << r.id;
    EXPECT_EQ(r.status, sat::Status::kUnknown) << r.id;
  }
}

// --- admission control ------------------------------------------------------

TEST(AdmissionControl, BurstShedsWithRetryHintInsteadOfBlocking) {
  ResponseLog log;
  core::ServerOptions opt;
  opt.num_workers = 1;
  opt.queue_capacity = 1;
  opt.max_queue_wait_ms = 0;
  opt.cache_capacity = 0;
  SolveServer server(log.attach(opt));

  const cnf::Cnf hard = pigeonhole(20);
  constexpr int kBurst = 11;
  std::size_t accepted = 0, shed = 0;
  const auto burst_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kBurst; ++i) {
    std::string error;
    auto request = SolveServer::parse_request(
        inline_request(hard, "deadline_ms=1200 simplify=off"), error);
    ASSERT_TRUE(request.has_value()) << error;
    request->id = "b" + std::to_string(i);
    if (server.submit(std::move(*request)))
      ++accepted;
    else
      ++shed;
  }
  const auto burst_elapsed = std::chrono::steady_clock::now() - burst_start;
  server.drain();

  // The worker is pinned for ~1.2s, so a burst of 11 cannot all be
  // accepted; the rejects must have come back immediately (no blocking).
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(accepted + shed, static_cast<std::size_t>(kBurst));
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(burst_elapsed)
                .count(),
            30);
  EXPECT_EQ(server.counters().overloads, shed);
  EXPECT_EQ(server.counters().completed, accepted);
  // Exactly one response per submitted request, shed ones included.
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kBurst));
  std::size_t overload_responses = 0;
  {
    const std::lock_guard<std::mutex> lock(log.m);
    for (const auto& r : log.responses) {
      if (r.overloaded) {
        ++overload_responses;
        EXPECT_GE(r.retry_after_ms, 1u);
        EXPECT_LE(r.retry_after_ms, 30000u);
      }
    }
  }
  EXPECT_EQ(overload_responses, shed);
  server.stop();
}

TEST(AdmissionControl, DegradedServiceUnderPressureSaysSo) {
  // Queue pressure above degrade_watermark at dequeue time serves requests
  // degraded (simplify off, capped conflicts, no portfolio fan-out) and
  // stamps the response. Submitting a pile before the single worker can
  // drain guarantees the later dequeues see the pressure.
  ResponseLog log;
  core::ServerOptions opt;
  opt.num_workers = 1;
  opt.queue_capacity = 64;
  opt.degrade_watermark = 2;
  opt.degraded_max_conflicts = 50;
  opt.cache_capacity = 0;
  SolveServer server(log.attach(opt));

  const cnf::Cnf hard = pigeonhole(8);  // needs far more than 50 conflicts
  constexpr int kPile = 12;
  for (int i = 0; i < kPile; ++i) {
    std::string error;
    // max_conflicts bounds the requests that happen to dequeue under no
    // pressure (they run the full ladder-free config); the degraded ones
    // are min-merged down to 50.
    auto request = SolveServer::parse_request(
        inline_request(hard,
                       "backend=portfolio portfolio=4 simplify=on "
                       "max_conflicts=20000"),
        error);
    ASSERT_TRUE(request.has_value()) << error;
    request->id = "d" + std::to_string(i);
    ASSERT_TRUE(server.submit(std::move(*request)));
  }
  server.drain();
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kPile));
  EXPECT_GT(server.counters().degraded, 0u);
  std::size_t degraded_seen = 0;
  {
    const std::lock_guard<std::mutex> lock(log.m);
    for (const auto& r : log.responses) {
      if (!r.degraded) continue;
      ++degraded_seen;
      // The degrade ladder collapses the portfolio and caps conflicts, so a
      // degraded solve of PHP(9) must come back kUnknown on budget.
      EXPECT_EQ(r.status, sat::Status::kUnknown) << r.id;
      EXPECT_FALSE(r.simplify_enabled) << r.id;
      EXPECT_EQ(r.backend, core::SolveBackend::kSingle) << r.id;
    }
  }
  EXPECT_EQ(degraded_seen, server.counters().degraded);
  server.stop();
}

// --- memory budget through the protocol -------------------------------------

TEST(MemoryBudget, ProtocolMemoutReportsReasonAndKeepsWorkerAlive) {
  // max_memory_mb=1 on an instance whose learnt database must outgrow 1 MiB
  // long before a verdict: the response is UNKNOWN with reason=memout, and
  // the same worker then serves a clean request correctly.
  ResponseLog log;
  core::ServerOptions opt;
  opt.num_workers = 1;
  opt.cache_capacity = 0;
  SolveServer server(log.attach(opt));

  std::string error;
  auto request = SolveServer::parse_request(
      inline_request(pigeonhole(20),
                     "max_memory_mb=1 deadline_ms=60000 simplify=off"),
      error);
  ASSERT_TRUE(request.has_value()) << error;
  request->id = "memout";
  ASSERT_TRUE(server.submit(std::move(*request)));
  server.drain();

  const ServerResponse r = log.get("memout");
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.status, sat::Status::kUnknown);
  EXPECT_EQ(r.reason, "memout");
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(server.counters().memouts, 1u);

  auto clean = SolveServer::parse_request(
      "solve family=adder_miter:4 expect=unsat", error);
  ASSERT_TRUE(clean.has_value()) << error;
  clean->id = "after";
  ASSERT_TRUE(server.submit(std::move(*clean)));
  server.drain();
  const ServerResponse healthy = log.get("after");
  EXPECT_TRUE(healthy.error.empty()) << healthy.error;
  EXPECT_EQ(healthy.status, sat::Status::kUnsat);
  server.stop();
}

// --- stream-level classification --------------------------------------------

TEST(StreamClassification, ExpectedErrorsAreNotUnexpected) {
  core::ServerOptions opt;
  opt.num_workers = 1;
  SolveServer server(opt);
  std::istringstream in(
      "solve id=bad family=nope expect=error\n"
      "this is not a request\n"
      "solve id=ok family=adder_miter:4 expect=unsat\n");
  std::ostringstream out;
  server.serve(in, out);
  server.stop();

  const core::ServerCounters counters = server.counters();
  EXPECT_EQ(counters.errors, 2u);           // bad family + malformed line
  EXPECT_EQ(counters.parse_errors, 1u);     // the malformed line
  EXPECT_EQ(counters.unexpected_errors, 0u);  // the family error was asserted
  EXPECT_EQ(counters.expect_failures, 0u);
  EXPECT_EQ(counters.completed + counters.parse_errors + counters.overloads,
            3u);
  // Wire format spot checks for the new fields' absence on clean verdicts.
  const std::string text = out.str();
  EXPECT_NE(text.find("\"status\":\"UNSAT\""), std::string::npos);
  EXPECT_EQ(text.find("\"degraded\""), std::string::npos);
  EXPECT_EQ(text.find("\"retry_after_ms\""), std::string::npos);
}

TEST(StreamClassification, DegenerateRandomFamilyIsAnErrorResponse) {
  // gen::random_aig needs at least 2 inputs and 1 gate and enforces it by
  // aborting, so the server must reject such a spec itself: one error
  // response per bad line, and the process keeps serving.
  core::ServerOptions opt;
  opt.num_workers = 1;
  SolveServer server(opt);
  std::istringstream in(
      "solve id=one_pi family=random:1\n"
      "solve id=no_gates family=random:8:0\n"
      "solve id=ok family=random:8:20:3\n");
  std::ostringstream out;
  server.serve(in, out);
  server.stop();

  const core::ServerCounters counters = server.counters();
  EXPECT_EQ(counters.errors, 2u);
  EXPECT_EQ(counters.parse_errors, 0u);
  EXPECT_EQ(counters.completed, 3u);
  EXPECT_EQ(counters.sat + counters.unsat, 1u);
  std::istringstream lines(out.str());
  std::string line;
  int errors = 0, verdicts = 0;
  while (std::getline(lines, line)) {
    const bool error = line.find("\"error\"") != std::string::npos;
    if (line.find("\"id\":\"one_pi\"") != std::string::npos ||
        line.find("\"id\":\"no_gates\"") != std::string::npos) {
      EXPECT_TRUE(error) << line;
      errors += error ? 1 : 0;
    } else if (line.find("\"id\":\"ok\"") != std::string::npos) {
      EXPECT_FALSE(error) << line;
      verdicts += line.find("SAT\"") != std::string::npos ? 1 : 0;
    }
  }
  EXPECT_EQ(errors, 2);
  EXPECT_EQ(verdicts, 1);
}

}  // namespace
}  // namespace csat
