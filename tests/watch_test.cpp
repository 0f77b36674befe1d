// Tests for the flat watcher arena (sat/watch.h) and the propagation
// engine built on it: FlatLists storage semantics (slab growth, dead-slot
// accounting, mark-compact, occurrence-histogram reservation), the
// check_trail() walker (trail, reasons and ClauseDb::check_watches()
// invariants) under heavy interleaving of learning, learnt-DB reduction
// and GC and restarts, and a churn sweep whose every verdict is certified
// (DRAT-checked UNSAT, model-checked SAT). Runs in the ASan/TSan lanes:
// every watcher is a raw index into a relocatable buffer, so an off-by-one
// here is exactly the kind of bug only full memory checking surfaces.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "gen/pigeonhole.h"
#include "sat/drat_check.h"
#include "sat/portfolio.h"
#include "sat/proof.h"
#include "sat/solver.h"
#include "sat/watch.h"
#include "test_formulas.h"

namespace csat::sat {
namespace {

using cnf::Cnf;
using gen::pigeonhole;
using test::check_model;
using test::churn_config;
using test::random_3sat;

// --- FlatLists storage semantics -------------------------------------------

TEST(FlatLists, PushGrowsListsIndependentlyAndPreservesOrder) {
  FlatLists<std::uint32_t> lists;
  lists.ensure_lists(3);
  for (std::uint32_t k = 0; k < 100; ++k) {
    lists.push(0, k);
    if (k % 2 == 0) lists.push(2, 1000 + k);
  }
  EXPECT_EQ(lists[0].size(), 100u);
  EXPECT_EQ(lists[1].size(), 0u);
  EXPECT_EQ(lists[2].size(), 50u);
  for (std::uint32_t k = 0; k < 100; ++k) EXPECT_EQ(lists[0][k], k);
  for (std::uint32_t k = 0; k < 50; ++k) EXPECT_EQ(lists[2][k], 1000 + 2 * k);
  // Doubling growth from capacity 0 strands 4+8+16+32+64 slots per grown
  // list; exact counts are an implementation detail, nonzero is the point.
  EXPECT_GT(lists.dead_slots(), 0u);
  EXPECT_GT(lists.relocations(), 0u);
}

TEST(FlatLists, SetSizeKeepsSurvivorsInOrderAndReusesTail) {
  // The clause database deletes watchers by compacting survivors in place
  // and truncating with set_size(); the freed tail serves later pushes.
  FlatLists<std::uint32_t> lists;
  lists.ensure_lists(1);
  for (std::uint32_t k = 0; k < 8; ++k) lists.push(0, k);
  const std::uint64_t relocations = lists.relocations();
  const std::span<std::uint32_t> s = lists[0];
  std::uint32_t keep = 0;
  for (const std::uint32_t v : s)
    if (v != 3) s[keep++] = v;
  lists.set_size(0, keep);
  ASSERT_EQ(lists[0].size(), 7u);
  const std::uint32_t expect[] = {0, 1, 2, 4, 5, 6, 7};
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(lists[0][i], expect[i]);
  lists.push(0, 8);
  EXPECT_EQ(lists.relocations(), relocations);
  EXPECT_EQ(lists[0][7], 8u);
}

TEST(FlatLists, ReserveListsAbsorbsHistogramSizedLoadWithoutRelocation) {
  FlatLists<std::uint32_t> lists;
  const std::vector<std::uint32_t> counts = {5, 0, 3, 7};
  lists.reserve_lists(counts);
  for (std::size_t i = 0; i < counts.size(); ++i)
    for (std::uint32_t k = 0; k < counts[i]; ++k)
      lists.push(i, static_cast<std::uint32_t>(100 * i + k));
  EXPECT_EQ(lists.relocations(), 0u);
  EXPECT_EQ(lists.dead_slots(), 0u);
  EXPECT_EQ(lists[3].size(), 7u);
  EXPECT_EQ(lists[3][6], 306u);
  // One push past the reserved capacity is the first relocation.
  lists.push(0, 42);
  EXPECT_EQ(lists.relocations(), 1u);
}

TEST(FlatLists, CompactPacksEveryListAndDropsDeadSlabs) {
  FlatLists<std::uint32_t> lists;
  lists.ensure_lists(4);
  for (std::uint32_t k = 0; k < 40; ++k) lists.push(k % 4, k);
  lists.set_size(1, 3);  // simulate a purge truncating survivors
  const std::size_t dead_before = lists.dead_slots();
  EXPECT_GT(dead_before, 0u);
  lists.compact();
  EXPECT_EQ(lists.dead_slots(), 0u);
  EXPECT_LT(lists.total_slots(), 40u + dead_before);
  EXPECT_EQ(lists[0].size(), 10u);
  EXPECT_EQ(lists[1].size(), 3u);
  for (std::uint32_t k = 0; k < 10; ++k) EXPECT_EQ(lists[0][k], 4 * k);
  for (std::uint32_t k = 0; k < 3; ++k) EXPECT_EQ(lists[1][k], 4 * k + 1);
}

// --- Solver integration ------------------------------------------------------

TEST(FlatWatch, ReservationAbsorbsFormulaAttachWithoutRelocations) {
  // No root units (uniform 3-SAT), so nothing propagates before the first
  // decision: the only pushes are the attach storm the occurrence-histogram
  // reservation exists to absorb.
  const Cnf f = random_3sat(150, 630, 0xFEED);
  Solver solver;
  solver.add_formula(f);
  Limits limits;
  limits.max_decisions = 0;
  (void)solver.solve(limits);
  EXPECT_EQ(solver.stats().watcher_relocations, 0u);
  EXPECT_GT(solver.stats().watch_bytes, 0u);
  EXPECT_TRUE(solver.check_trail());
}

TEST(FlatWatch, InvariantsHoldAcrossBudgetedChurnSlices) {
  // Pigeonhole is binary-dominated (the bin lists see the churn) and
  // UNSAT; the random instance exercises long-clause migration.
  const Cnf formulas[] = {pigeonhole(5), random_3sat(90, 380, 0xC0FFEE)};
  const Status expected[] = {Status::kUnsat, Status::kUnknown};
  for (int i = 0; i < 2; ++i) {
    Solver solver(churn_config());
    solver.add_formula(formulas[i]);
    ASSERT_TRUE(solver.check_trail()) << "i=" << i;
    Status status = Status::kUnknown;
    // Budgeted slices: every pause is a point where learning, GC and
    // restarts have all interleaved since the last check, and the watch
    // invariants must still hold exactly.
    for (int slice = 0; slice < 40 && status == Status::kUnknown; ++slice) {
      Limits limits;
      limits.max_conflicts = 150;
      status = solver.solve(limits);
      ASSERT_TRUE(solver.check_trail()) << "i=" << i << " slice=" << slice;
    }
    if (expected[i] != Status::kUnknown) {
      EXPECT_EQ(status, expected[i]);
    }
    if (status == Status::kSat) {
      EXPECT_TRUE(check_model(formulas[i], solver.model()));
    }
  }
}

TEST(FlatWatch, ChurnVerdictsAreCertifiedAcrossRandomInstances) {
  // Every verdict of the churn configuration is certified on its own: a
  // DRAT refutation for UNSAT, a model check for SAT.
  Rng rng(0x57A7);
  int unsat = 0;
  int sat = 0;
  for (int i = 0; i < 25; ++i) {
    const int vars = 30 + static_cast<int>(rng.next_below(40));
    const int clauses = static_cast<int>(
        static_cast<double>(vars) * (3.6 + 1.2 * rng.next_double()));
    const Cnf f = random_3sat(vars, clauses, rng.next_u64());
    ProofLog proof;
    const auto r = solve_cnf(f, churn_config(), {}, &proof);
    ASSERT_NE(r.status, Status::kUnknown) << "iter=" << i;
    if (r.status == Status::kSat) {
      ++sat;
      EXPECT_TRUE(check_model(f, r.model)) << "iter=" << i;
    } else {
      ++unsat;
      const DratResult check = check_drat(f, proof);
      EXPECT_TRUE(check.valid) << "iter=" << i << ": " << check.error;
      EXPECT_TRUE(check.proved_unsat) << "iter=" << i;
    }
  }
  // The sweep straddles the phase transition: both verdicts get checked.
  EXPECT_GT(sat, 0);
  EXPECT_GT(unsat, 0);
}

TEST(FlatWatch, DeterministicRerunsProduceIdenticalStats) {
  const Cnf f = pigeonhole(6);
  const auto run = [&] {
    Solver solver(churn_config());
    solver.add_formula(f);
    (void)solver.solve();
    return solver.stats();
  };
  const Stats a = run();
  const Stats b = run();
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.propagations, b.propagations);
  EXPECT_EQ(a.binary_props, b.binary_props);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.watcher_relocations, b.watcher_relocations);
}

TEST(FlatWatch, PortfolioAggregatesEngineCountersAcrossWorkers) {
  PortfolioOptions opt;
  opt.num_workers = 2;
  opt.configs = default_portfolio(2, 0xBEEF);
  const auto r = solve_portfolio(pigeonhole(5), opt);
  EXPECT_EQ(r.status, Status::kUnsat);
  // Every worker, winner or cancelled loser, reports its own engine
  // counters, and the result's counters are the winner's.
  ASSERT_EQ(r.workers.size(), 2u);
  ASSERT_NE(r.winner, PortfolioResult::kNoWinner);
  EXPECT_EQ(r.stats.propagations, r.workers[r.winner].stats.propagations);
  EXPECT_GT(r.stats.propagations, 0u);
  for (const WorkerOutcome& w : r.workers) EXPECT_GT(w.stats.watch_bytes, 0u);
}

}  // namespace
}  // namespace csat::sat
