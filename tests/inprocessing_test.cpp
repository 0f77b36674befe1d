// Stress tests of the solver's always-on inprocessing: restart trail reuse
// under assumptions and frequent restarts, and adaptive glue export under a
// tiny sharing ring. Verdicts are cross-checked against brute force on
// small instances (a restart that keeps a stale trail prefix flips them)
// and against the sequential solver.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sat/portfolio.h"
#include "sat/solver.h"
#include "test_formulas.h"

namespace csat::sat {
namespace {

using cnf::Cnf;
using test::brute_force_sat;
using test::check_model;
using test::random_3sat;

TEST(TrailReuse, AssumptionSolvesStaySoundWithInprocessing) {
  // solve_assuming under restarts (the incremental ATPG path), where trail
  // reuse must stand down so assumption levels are re-decided in order:
  // verdicts under assumptions must match appending the assumptions as
  // units to a fresh formula.
  Rng rng(0xA55);
  for (int i = 0; i < 30; ++i) {
    const int vars = 12 + static_cast<int>(rng.next_below(7));
    const int clauses =
        static_cast<int>(vars * (3.8 + 1.0 * rng.next_double()));
    const Cnf f = random_3sat(vars, clauses, rng.next_u64());
    Solver solver;
    solver.add_formula(f);
    for (int q = 0; q < 4; ++q) {
      std::vector<cnf::Lit> assume;
      for (int a = 0; a < 2; ++a) {
        assume.push_back(cnf::Lit::make(
            static_cast<std::uint32_t>(rng.next_below(vars)),
            rng.next_bool()));
      }
      const Status status = solver.solve_assuming(assume);
      Cnf g = f;
      for (cnf::Lit l : assume) g.add_clause({l});
      EXPECT_EQ(status == Status::kSat, brute_force_sat(g))
          << "iter=" << i << " query=" << q;
    }
  }
}

TEST(TrailReuse, KeepsDeterminismAndCounts) {
  // Same formula + config => bit-identical statistics, and the reuse
  // counter must actually fire on a restart-heavy run.
  SolverConfig cfg;
  cfg.restart.kind = RestartConfig::Kind::kLuby;
  cfg.restart.luby_unit = 8;
  const Cnf f = random_3sat(60, 255, 0xDEE9);
  const auto run = [&f](const SolverConfig& c) {
    Solver solver(c);
    solver.add_formula(f);
    (void)solver.solve();
    return solver.stats();
  };
  const Stats a = run(cfg);
  const Stats b = run(cfg);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.propagations, b.propagations);
  EXPECT_EQ(a.reused_trails, b.reused_trails);
  EXPECT_GT(a.restarts, 0u);
  EXPECT_EQ(a.reused_trails, 3u);
}

TEST(Sharing, AdaptiveExportSelfCorrectsUnderTinyRing) {
  // A loose LBD filter floods a tiny ring and loses most publications.
  // Adaptive export lets each worker tighten its own filter, from the
  // loose starting point of 8 down into the band
  // [kAdaptiveMinLbd, kAdaptiveMaxLbd]; verdicts must stay correct
  // throughout.
  Rng rng(0xADA);
  for (int i = 0; i < 12; ++i) {
    const int vars = 40 + static_cast<int>(rng.next_below(21));
    const Cnf f =
        random_3sat(vars, static_cast<int>(vars * 4.3), rng.next_u64());
    const auto seq = solve_cnf(f, SolverConfig::kissat_like());
    PortfolioOptions opt;
    opt.num_workers = 4;
    opt.sharing.enabled = true;
    opt.sharing.ring_capacity = 16;
    opt.sharing.max_lbd = 8;
    opt.sharing.max_size = 16;
    const auto r = solve_portfolio(f, opt);
    EXPECT_EQ(r.status, seq.status) << i;
    if (r.status == Status::kSat) {
      EXPECT_TRUE(check_model(f, r.model)) << i;
    }
  }
}

}  // namespace
}  // namespace csat::sat
