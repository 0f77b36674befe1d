#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cnf/tseitin.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "cnf/cnf_to_aig.h"
#include "gen/miter.h"
#include "gen/pigeonhole.h"
#include "gen/suite.h"
#include "sat/portfolio.h"
#include "sat/solver.h"
#include "test_formulas.h"

namespace csat {
namespace {

using gen::pigeonhole;
using test::check_model;
using test::random_3sat;

cnf::Cnf adder_miter_cnf(int width) {
  return cnf::tseitin_encode(gen::make_adder_miter(width)).cnf;
}

bool stats_equal(const sat::Stats& a, const sat::Stats& b) {
  return a.decisions == b.decisions && a.conflicts == b.conflicts &&
         a.propagations == b.propagations && a.restarts == b.restarts &&
         a.learned == b.learned && a.removed == b.removed;
}

// --- solver termination / budget hooks -------------------------------------

TEST(SolverTermination, PresetTerminateFlagReturnsUnknownImmediately) {
  const cnf::Cnf f = pigeonhole(8);
  sat::Solver solver;
  solver.add_formula(f);
  std::atomic<bool> stop{true};
  sat::Limits limits;
  limits.terminate = &stop;
  EXPECT_EQ(solver.solve(limits), sat::Status::kUnknown);
  // No search happened: the flag is honored before the first decision.
  EXPECT_EQ(solver.stats().decisions, 0u);
}

TEST(SolverTermination, CrossThreadTerminateStopsHardSolve) {
  const cnf::Cnf f = pigeonhole(20);  // far beyond any test-time budget
  sat::Solver solver;
  solver.add_formula(f);
  std::atomic<bool> stop{false};
  sat::Limits limits;
  limits.terminate = &stop;
  sat::Status status = sat::Status::kSat;
  std::thread worker([&] { status = solver.solve(limits); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  worker.join();
  EXPECT_EQ(status, sat::Status::kUnknown);
  EXPECT_GT(solver.stats().decisions, 0u);
}

TEST(SolverTermination, BudgetedSolveIsResumable) {
  const cnf::Cnf f = pigeonhole(7);
  sat::Solver solver;
  solver.add_formula(f);
  sat::Limits budget;
  budget.max_conflicts = 50;
  EXPECT_EQ(solver.solve(budget), sat::Status::kUnknown);
  const sat::Stats mid = solver.stats();
  EXPECT_GE(mid.conflicts, 50u);
  // Stats survive the interruption and a second solve() completes the proof
  // using the clauses learned so far.
  EXPECT_EQ(solver.solve(), sat::Status::kUnsat);
  EXPECT_GE(solver.stats().conflicts, mid.conflicts);
}

TEST(SolverTermination, BudgetedSatInstanceResumesToModel) {
  const cnf::Cnf f = random_3sat(150, 600, 11);
  sat::Solver solver;
  solver.add_formula(f);
  sat::Limits budget;
  budget.max_decisions = 5;
  const sat::Status first = solver.solve(budget);
  if (first == sat::Status::kUnknown) {
    const sat::Status second = solver.solve();
    ASSERT_EQ(second, sat::Status::kSat);
    EXPECT_TRUE(check_model(f, solver.model()));
  } else {
    EXPECT_EQ(first, sat::Status::kSat);
    EXPECT_TRUE(check_model(f, solver.model()));
  }
}

// --- default portfolio construction ----------------------------------------

TEST(Portfolio, DefaultConfigsAreDeterministicAndDiverse) {
  const auto a = sat::default_portfolio(6, 42);
  const auto b = sat::default_portfolio(6, 42);
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed) << i;
    EXPECT_EQ(a[i].restart.kind, b[i].restart.kind) << i;
    EXPECT_EQ(a[i].random_decision_freq, b[i].random_decision_freq) << i;
  }
  // Lead config is the unmodified kissat-like preset.
  EXPECT_EQ(a[0].seed, sat::SolverConfig::kissat_like().seed);
  EXPECT_EQ(a[0].restart.kind, sat::RestartConfig::Kind::kEma);
  // Seeds diversify the rest.
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_NE(a[i].seed, a[0].seed) << i;
}

// --- portfolio race ---------------------------------------------------------

TEST(Portfolio, DeterministicModeIsReproducible) {
  const cnf::Cnf f = random_3sat(120, 504, 3);
  sat::PortfolioOptions opt;
  opt.num_workers = 4;
  opt.deterministic = true;
  const auto r1 = sat::solve_portfolio(f, opt);
  const auto r2 = sat::solve_portfolio(f, opt);
  ASSERT_NE(r1.status, sat::Status::kUnknown);
  EXPECT_EQ(r1.status, r2.status);
  EXPECT_EQ(r1.winner, r2.winner);
  if (r1.status == sat::Status::kSat) {
    EXPECT_TRUE(check_model(f, r1.model));
    EXPECT_TRUE(check_model(f, r2.model));
  }
  EXPECT_TRUE(stats_equal(r1.stats, r2.stats));
  EXPECT_EQ(r1.model, r2.model);
  // Every worker ran to completion and is individually reproducible.
  ASSERT_EQ(r1.workers.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NE(r1.workers[i].status, sat::Status::kUnknown) << i;
    EXPECT_TRUE(stats_equal(r1.workers[i].stats, r2.workers[i].stats)) << i;
  }
}

TEST(Portfolio, DeterministicWinnerMatchesSingleSolver) {
  const cnf::Cnf f = adder_miter_cnf(6);
  sat::PortfolioOptions opt;
  opt.num_workers = 3;
  opt.deterministic = true;
  const auto r = sat::solve_portfolio(f, opt);
  // Unlimited budgets: every worker is definitive, so the lowest-index
  // worker (the unmodified lead config) wins and must match a plain solve.
  EXPECT_EQ(r.winner, 0u);
  const auto single = sat::solve_cnf(f, sat::SolverConfig::kissat_like());
  EXPECT_EQ(r.status, single.status);
  EXPECT_TRUE(stats_equal(r.stats, single.stats));
}

TEST(Portfolio, FirstFinisherCancelsLosers) {
  // Hard UNSAT family: every config needs substantial search, so when the
  // winner crosses the line the losers are mid-flight. A loser that was
  // NOT cancelled would run to a definitive verdict (budgets are
  // unlimited) — observing kUnknown proves the terminate hook fired.
  const cnf::Cnf f = pigeonhole(7);
  sat::PortfolioOptions opt;
  opt.num_workers = 4;
  const auto r = sat::solve_portfolio(f, opt);
  EXPECT_EQ(r.status, sat::Status::kUnsat);
  ASSERT_LT(r.winner, 4u);
  std::size_t cancelled = 0;
  for (const auto& w : r.workers)
    if (w.status == sat::Status::kUnknown) ++cancelled;
  EXPECT_GE(cancelled, 1u);
}

TEST(Portfolio, AgreementAcrossConfigsOnCraftedFamilies) {
  struct Family {
    cnf::Cnf formula;
    sat::Status expected;
  };
  std::vector<Family> families;
  families.push_back({pigeonhole(5), sat::Status::kUnsat});
  families.push_back({adder_miter_cnf(5), sat::Status::kUnsat});
  families.push_back({random_3sat(60, 180, 5), sat::Status::kSat});
  for (std::size_t fi = 0; fi < families.size(); ++fi) {
    sat::PortfolioOptions opt;
    opt.num_workers = 4;
    opt.deterministic = true;  // force every config to a verdict
    const auto r = sat::solve_portfolio(families[fi].formula, opt);
    EXPECT_EQ(r.status, families[fi].expected) << fi;
    for (std::size_t wi = 0; wi < r.workers.size(); ++wi)
      EXPECT_EQ(r.workers[wi].status, families[fi].expected)
          << "family " << fi << " worker " << wi;
    if (r.status == sat::Status::kSat) {
      EXPECT_TRUE(check_model(families[fi].formula, r.model)) << fi;
    }
  }
}

TEST(Portfolio, BudgetExhaustionReportsNoWinner) {
  const cnf::Cnf f = pigeonhole(9);
  sat::PortfolioOptions opt;
  opt.num_workers = 2;
  opt.limits.max_conflicts = 20;
  const auto r = sat::solve_portfolio(f, opt);
  EXPECT_EQ(r.status, sat::Status::kUnknown);
  EXPECT_EQ(r.winner, sat::PortfolioResult::kNoWinner);
  for (const auto& w : r.workers) EXPECT_EQ(w.status, sat::Status::kUnknown);
  // No winner still surfaces the lead worker's search effort.
  EXPECT_GE(r.stats.conflicts, 20u);
}

TEST(Portfolio, ExternalTerminateCancelsWholeRace) {
  const cnf::Cnf f = pigeonhole(20);  // unsolvable within test time
  sat::PortfolioOptions opt;
  opt.num_workers = 2;
  std::atomic<bool> cancel{false};
  opt.limits.terminate = &cancel;
  sat::PortfolioResult r;
  std::thread race([&] { r = sat::solve_portfolio(f, opt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  cancel.store(true);
  race.join();
  EXPECT_EQ(r.status, sat::Status::kUnknown);
  EXPECT_EQ(r.winner, sat::PortfolioResult::kNoWinner);
}

// --- circuit-vs-CNF race ----------------------------------------------------

TEST(Portfolio, CircuitRaceDeterministicModeIsReproducible) {
  const aig::Aig g = gen::make_adder_miter(8);
  sat::CircuitRaceOptions opt;
  opt.deterministic = true;
  const auto a = sat::solve_circuit_race(g, opt);
  const auto b = sat::solve_circuit_race(g, opt);
  EXPECT_EQ(a.status, sat::Status::kUnsat);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.winner, b.winner);
  // Both arms ran to completion (no cancellation in deterministic mode) and
  // their gate/CNF-domain searches are bitwise repeatable.
  EXPECT_EQ(a.circuit_status, b.circuit_status);
  EXPECT_EQ(a.cnf_status, b.cnf_status);
  EXPECT_EQ(a.circuit_stats.conflicts, b.circuit_stats.conflicts);
  EXPECT_EQ(a.circuit_stats.decisions, b.circuit_stats.decisions);
  EXPECT_EQ(a.cnf_stats.conflicts, b.cnf_stats.conflicts);
}

TEST(Portfolio, CircuitRaceExternalTerminateCancelsBothArms) {
  // A bridged hard UNSAT pigeonhole: both arms need real search, so neither
  // can finish before the cancel lands.
  const aig::Aig g = cnf::cnf_to_aig(pigeonhole(12));
  sat::CircuitRaceOptions opt;
  std::atomic<bool> cancel{false};
  opt.limits.terminate = &cancel;
  sat::CircuitRaceResult r;
  std::thread race([&] { r = sat::solve_circuit_race(g, opt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cancel.store(true);
  race.join();
  EXPECT_EQ(r.status, sat::Status::kUnknown);
  EXPECT_EQ(r.winner, sat::CircuitRaceResult::Arm::kNone);
}

// --- clause sharing ---------------------------------------------------------

TEST(ClauseSharing, VerdictsAgreeWithAndWithoutSharing) {
  struct Family {
    cnf::Cnf formula;
    sat::Status expected;
  };
  std::vector<Family> families;
  families.push_back({pigeonhole(6), sat::Status::kUnsat});
  families.push_back({adder_miter_cnf(6), sat::Status::kUnsat});
  families.push_back({random_3sat(80, 300, 9), sat::Status::kSat});
  for (std::size_t fi = 0; fi < families.size(); ++fi) {
    for (const bool share : {false, true}) {
      sat::PortfolioOptions opt;
      opt.num_workers = 4;
      opt.sharing.enabled = share;
      const auto r = sat::solve_portfolio(families[fi].formula, opt);
      EXPECT_EQ(r.status, families[fi].expected)
          << "family " << fi << " sharing " << share;
      if (r.status == sat::Status::kSat) {
        EXPECT_TRUE(check_model(families[fi].formula, r.model)) << fi;
      }
      if (!share) {
        EXPECT_EQ(r.clauses_exported, 0u);
        EXPECT_EQ(r.clauses_imported, 0u);
      }
    }
  }
}

TEST(ClauseSharing, HardUnsatInstanceActuallySharesClauses) {
  // Pigeonhole(7) forces thousands of conflicts and many restarts in every
  // worker, so glue clauses must both leave and enter the exchange.
  const cnf::Cnf f = pigeonhole(7);
  sat::PortfolioOptions opt;
  opt.num_workers = 4;
  const auto r = sat::solve_portfolio(f, opt);
  EXPECT_EQ(r.status, sat::Status::kUnsat);
  EXPECT_GT(r.clauses_exported, 0u);
  EXPECT_GT(r.clauses_imported, 0u);
  std::uint64_t exported = 0;
  std::uint64_t imported = 0;
  for (const auto& w : r.workers) {
    exported += w.stats.exported;
    imported += w.stats.imported;
  }
  EXPECT_EQ(r.clauses_exported, exported);
  EXPECT_EQ(r.clauses_imported, imported);
}

TEST(ClauseSharing, DeterministicModeDisablesSharing) {
  const cnf::Cnf f = pigeonhole(6);
  sat::PortfolioOptions opt;
  opt.num_workers = 4;
  opt.deterministic = true;
  opt.sharing.enabled = true;  // requested, but deterministic wins
  const auto r = sat::solve_portfolio(f, opt);
  EXPECT_EQ(r.status, sat::Status::kUnsat);
  EXPECT_EQ(r.clauses_exported, 0u);
  EXPECT_EQ(r.clauses_imported, 0u);
  // Workers behave exactly like isolated solvers: same stats as a plain
  // sequential run of the lead config.
  const auto single = sat::solve_cnf(f, sat::SolverConfig::kissat_like());
  EXPECT_TRUE(stats_equal(r.workers[0].stats, single.stats));
}

TEST(ClauseSharing, SingleWorkerPortfolioNeverShares) {
  const cnf::Cnf f = random_3sat(60, 200, 13);
  sat::PortfolioOptions opt;
  opt.num_workers = 1;
  opt.sharing.enabled = true;
  const auto r = sat::solve_portfolio(f, opt);
  ASSERT_NE(r.status, sat::Status::kUnknown);
  EXPECT_EQ(r.clauses_exported, 0u);
  EXPECT_EQ(r.clauses_imported, 0u);
  if (r.status == sat::Status::kSat) {
    EXPECT_TRUE(check_model(f, r.model));
  }
}

TEST(ClauseSharing, SolverImportApiIsSoundStandalone) {
  // Drive import_clauses() directly: a producer solver learns clauses on a
  // hard formula and a consumer imports them mid-search.
  const cnf::Cnf f = pigeonhole(6);
  sat::ClauseExchange exchange(512);
  sat::Solver producer;
  producer.add_formula(f);
  producer.connect_exchange(&exchange, 0);
  EXPECT_EQ(producer.solve(), sat::Status::kUnsat);
  EXPECT_GT(producer.stats().exported, 0u);
  EXPECT_EQ(exchange.published(), producer.stats().exported);

  sat::Solver consumer;
  consumer.add_formula(f);
  consumer.connect_exchange(&exchange, 1);
  EXPECT_TRUE(consumer.import_clauses());
  EXPECT_GT(consumer.stats().imported, 0u);
  // Foreign clauses are implied: the verdict is unchanged.
  EXPECT_EQ(consumer.solve(), sat::Status::kUnsat);
}

// --- the pipeline's portfolio backend ---------------------------------------

TEST(Portfolio, PipelineBackendMatchesSingleSolver) {
  // The pipeline's portfolio backend races three diversified configs per
  // instance; it may change wall-clock time, never a verdict.
  gen::SuiteParams params;
  params.count = 12;
  params.seed = 17;
  const auto suite = gen::make_suite(params);

  core::PipelineOptions single;
  single.mode = core::PipelineMode::kBaseline;
  core::PipelineOptions race = single;
  race.backend = core::SolveBackend::kPortfolio;
  race.portfolio_size = 3;

  for (const auto& inst : suite) {
    const auto ref = core::solve_instance(inst.circuit, single);
    const auto run = core::solve_instance(inst.circuit, race);
    EXPECT_NE(ref.status, sat::Status::kUnknown) << inst.name;
    EXPECT_EQ(ref.status, run.status) << inst.name;
  }
}

}  // namespace
}  // namespace csat
