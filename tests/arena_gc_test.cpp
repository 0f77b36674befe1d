// Stress tests for the clause-arena garbage collector: configurations with
// tiny reduction budgets force many ClauseDb::reduce() cycles — and so many
// mark-compact collections — while solving, with and without cross-worker
// clause sharing. Verdicts must stay correct (cross-checked against brute
// force / known-UNSAT families), every SAT model must check out against the
// original formula, and watcher/reason references must survive compaction
// (any dangling reference derails search into wrong verdicts or, in the
// sanitizer lanes, a hard fault).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/pigeonhole.h"
#include "sat/portfolio.h"
#include "sat/solver.h"
#include "test_formulas.h"

namespace csat::sat {
namespace {

using cnf::Cnf;
using gen::pigeonhole;
using test::brute_force_sat;
using test::check_model;
using test::random_3sat;

/// A configuration whose learnt DB is reduced every few dozen conflicts:
/// maximal GC churn relative to search progress.
SolverConfig gc_churn_config() {
  SolverConfig cfg;
  cfg.reduce_first = 50;
  cfg.reduce_increment = 10;
  return cfg;
}

TEST(ArenaGc, VerdictsMatchBruteForceUnderConstantReduction) {
  Rng rng(0xA7E7A);
  const SolverConfig cfg = gc_churn_config();
  for (int i = 0; i < 40; ++i) {
    const int vars = 10 + static_cast<int>(rng.next_below(9));
    const int clauses =
        static_cast<int>(vars * (3.5 + 1.5 * rng.next_double()));
    const Cnf f = random_3sat(vars, clauses, rng.next_u64());
    const auto r = solve_cnf(f, cfg);
    EXPECT_EQ(r.status == Status::kSat, brute_force_sat(f)) << "iter=" << i;
    if (r.status == Status::kSat) {
      EXPECT_TRUE(check_model(f, r.model)) << "iter=" << i;
    }
  }
}

TEST(ArenaGc, PigeonholeSurvivesManyCompactions) {
  // Hard UNSAT family: thousands of conflicts against a 50/10 reduction
  // budget drive dozens of reductions and repeated arena compactions.
  const Cnf f = pigeonhole(7);
  const auto r = solve_cnf(f, gc_churn_config());
  EXPECT_EQ(r.status, Status::kUnsat);
  EXPECT_GT(r.stats.reductions, 20u);
  EXPECT_GT(r.stats.removed, 0u);
  EXPECT_GT(r.stats.arena_gcs, 0u);
  // GC only ever reclaims clauses that reduction actually deleted.
  EXPECT_LE(r.stats.arena_gcs, r.stats.reductions);
}

TEST(ArenaGc, StatsStayDeterministicAcrossRuns) {
  // Compaction must not perturb the search: two identical runs under heavy
  // GC churn produce identical statistics.
  const Cnf f = pigeonhole(6);
  const auto r1 = solve_cnf(f, gc_churn_config());
  const auto r2 = solve_cnf(f, gc_churn_config());
  EXPECT_EQ(r1.status, Status::kUnsat);
  EXPECT_EQ(r1.stats.conflicts, r2.stats.conflicts);
  EXPECT_EQ(r1.stats.decisions, r2.stats.decisions);
  EXPECT_EQ(r1.stats.propagations, r2.stats.propagations);
  EXPECT_EQ(r1.stats.reductions, r2.stats.reductions);
  EXPECT_EQ(r1.stats.arena_gcs, r2.stats.arena_gcs);
  EXPECT_EQ(r1.stats.removed, r2.stats.removed);
  EXPECT_EQ(r1.stats.learnt_literals, r2.stats.learnt_literals);
}

TEST(ArenaGc, LearntLiteralCounterTracksLearning) {
  const Cnf f = pigeonhole(6);
  const auto r = solve_cnf(f);
  EXPECT_EQ(r.status, Status::kUnsat);
  // Every conflict learns one clause of >= 1 literal, so the literal count
  // dominates the clause count and is bounded by conflicts * clause width.
  EXPECT_GE(r.stats.learnt_literals, r.stats.learned);
  EXPECT_GT(r.stats.learnt_literals, 0u);
}

TEST(ArenaGc, IncrementalSolvesAcrossCompactions) {
  // Reason/watcher references must stay valid across solve() calls that
  // each trigger reductions, including root-level reasons that persist.
  Solver s(gc_churn_config());
  Cnf f;
  const int vars = 12;
  f.add_vars(vars);
  while (s.num_vars() < f.num_vars()) s.new_var();
  Rng rng(0xBEEF);
  // Keep strengthening with fresh clauses and re-solving; random ternary
  // clauses over 12 variables cross the UNSAT threshold (~4.26 * 12 ≈ 51
  // clauses) well within the round budget.
  bool reached_unsat = false;
  for (int round = 0; round < 120 && !reached_unsat; ++round) {
    std::vector<cnf::Lit> c;
    while (c.size() < 3) {
      const auto v = static_cast<std::uint32_t>(rng.next_below(vars));
      bool dup = false;
      for (auto l : c) dup |= l.var() == v;
      if (!dup) c.push_back(cnf::Lit::make(v, rng.next_bool()));
    }
    f.add_clause(c);
    const bool ok = s.add_clause(std::span<const cnf::Lit>(c));
    const Status status = ok ? s.solve() : Status::kUnsat;
    const bool expected = brute_force_sat(f);
    EXPECT_EQ(status == Status::kSat, expected) << "round=" << round;
    if (status == Status::kSat) {
      EXPECT_TRUE(check_model(f, s.model())) << "round=" << round;
    } else {
      reached_unsat = true;
    }
  }
  EXPECT_TRUE(reached_unsat) << "formula never became UNSAT; stress too weak";
}

TEST(ArenaGc, SharingWithConstantReductionAgreesWithSequential) {
  // Clause sharing keeps importing foreign learnt clauses into an arena
  // that reduction is constantly compacting — on a tiny ring with a
  // loose filter so import traffic is heavy. Portfolio verdicts must match
  // the sequential solver on every instance.
  Rng rng(0x6C0DE);
  PortfolioOptions opt;
  opt.configs = default_portfolio(4);
  for (auto& cfg : opt.configs) {
    cfg.reduce_first = 50;
    cfg.reduce_increment = 10;
  }
  opt.sharing.enabled = true;
  opt.sharing.ring_capacity = 32;
  opt.sharing.max_lbd = 6;
  opt.sharing.max_size = 12;
  int unsat_seen = 0;
  for (int i = 0; i < 12; ++i) {
    const int vars = 25 + static_cast<int>(rng.next_below(21));
    const Cnf f =
        random_3sat(vars, static_cast<int>(vars * 4.4), rng.next_u64());
    const auto seq = solve_cnf(f, SolverConfig::kissat_like());
    const auto r = solve_portfolio(f, opt);
    EXPECT_EQ(r.status, seq.status) << "iter=" << i;
    if (r.status == Status::kSat) {
      EXPECT_TRUE(check_model(f, r.model)) << "iter=" << i;
    } else {
      ++unsat_seen;
    }
  }
  // The ratio-4.4 band must exercise the UNSAT path too, or the GC-vs-
  // import interaction goes untested on conflict-heavy runs.
  EXPECT_GT(unsat_seen, 0);

  // And one hard UNSAT family where every worker reduces constantly.
  const auto r = solve_portfolio(pigeonhole(7), opt);
  EXPECT_EQ(r.status, Status::kUnsat);
  EXPECT_GT(r.stats.reductions, 0u);
}

}  // namespace
}  // namespace csat::sat
