// Tests for the CNF preprocessing layer (unit propagation, pure literals,
// failed-literal probing, equivalent-literal substitution, subsumption,
// self-subsuming resolution, bounded variable elimination, variable
// remapping, budgets) and for solver assumptions. Equisatisfiability and
// model reconstruction are cross-checked against brute force and the CDCL
// solver.

#include <gtest/gtest.h>

#include "cnf/simplify.h"
#include "common/rng.h"
#include "sat/solver.h"
#include "test_formulas.h"

namespace csat::cnf {
namespace {

using test::brute_force_sat;

Lit pos(std::uint32_t v) { return Lit::make(v, false); }
Lit neg(std::uint32_t v) { return Lit::make(v, true); }

/// Solves the simplified formula and checks that its model, extended by
/// the reconstruction stack, satisfies the original formula \p f.
void expect_model_extends(const Cnf& f, const SimplifyResult& r) {
  ASSERT_FALSE(r.unsat);
  const auto solved = sat::solve_cnf(r.cnf);
  ASSERT_EQ(solved.status, sat::Status::kSat);
  const auto full = r.extend_model(solved.model);
  ASSERT_EQ(full.size(), f.num_vars());
  EXPECT_TRUE(f.satisfied_by(full));
}

Cnf random_3sat(int vars, int clauses, std::uint64_t seed) {
  Rng rng(seed);
  Cnf f;
  f.add_vars(vars);
  for (int i = 0; i < clauses; ++i) {
    std::vector<Lit> c;
    while (c.size() < 3) {
      const auto v = static_cast<std::uint32_t>(rng.next_below(vars));
      bool dup = false;
      for (Lit x : c) dup |= x.var() == v;
      if (!dup) c.push_back(Lit::make(v, rng.next_bool()));
    }
    f.add_clause(c);
  }
  return f;
}

TEST(Simplify, UnitPropagationChains) {
  Cnf f;
  f.add_vars(4);
  f.add_unit(pos(0));
  f.add_binary(neg(0), pos(1));
  f.add_binary(neg(1), pos(2));
  f.add_ternary(neg(2), pos(3), pos(0));
  const auto r = simplify(f);
  EXPECT_FALSE(r.unsat);
  EXPECT_GE(r.stats.fixed_units, 3u);
  // Everything collapses to units (x3 is pure or free).
  for (std::size_t i = 0; i < r.cnf.num_clauses(); ++i)
    EXPECT_EQ(r.cnf.clause(i).size(), 1u);
}

TEST(Simplify, DetectsUnsatDuringPropagation) {
  Cnf f;
  f.add_vars(2);
  f.add_unit(pos(0));
  f.add_binary(neg(0), pos(1));
  f.add_binary(neg(0), neg(1));
  const auto r = simplify(f);
  EXPECT_TRUE(r.unsat);
  EXPECT_EQ(sat::solve_cnf(r.cnf).status, sat::Status::kUnsat);
}

TEST(Simplify, PureLiteralElimination) {
  Cnf f;
  f.add_vars(3);
  f.add_binary(pos(0), pos(1));  // x0 occurs only positively
  f.add_binary(pos(0), neg(1));
  f.add_binary(pos(2), neg(2));  // tautology: dropped on input
  const auto r = simplify(f);
  EXPECT_FALSE(r.unsat);
  EXPECT_GE(r.stats.pure_literals, 1u);
}

TEST(Simplify, SubsumptionRemovesSupersets) {
  // Every variable occurs in both phases, so pure-literal elimination
  // cannot act first, and no probe fails or lifts a literal: subsumption
  // meets the two supersets before variable elimination runs.
  Cnf f;
  f.add_vars(4);
  f.add_binary(pos(0), pos(1));
  f.add_ternary(pos(0), pos(1), pos(2));  // subsumed by the binary
  f.add_ternary(pos(0), pos(1), neg(3));  // subsumed too
  const Lit mixed[] = {neg(0), neg(1), neg(2), pos(3)};
  f.add_clause(mixed);
  const auto r = simplify(f);
  EXPECT_GE(r.stats.subsumed_clauses, 2u);
  expect_model_extends(f, r);
}

TEST(Simplify, SelfSubsumingResolutionStrengthens) {
  // Both phases of every variable occur, as above, so strengthening runs
  // before pure-literal elimination or BVE can remove x1.
  Cnf f;
  f.add_vars(3);
  f.add_binary(pos(0), pos(1));
  f.add_ternary(pos(0), neg(1), pos(2));  // resolves to (x0 x2)
  f.add_ternary(neg(0), pos(1), neg(2));
  const auto r = simplify(f);
  EXPECT_GE(r.stats.strengthened_clauses, 1u);
  expect_model_extends(f, r);
}

TEST(Simplify, VariableEliminationReducesVars) {
  // v appears in 2x2 clauses; resolvents: 4 candidates, some tautological.
  Cnf f;
  f.add_vars(5);
  f.add_binary(pos(0), pos(4));
  f.add_binary(pos(1), pos(4));
  f.add_binary(pos(2), neg(4));
  f.add_binary(pos(3), neg(4));
  const auto r = simplify(f);
  EXPECT_FALSE(r.unsat);
  EXPECT_GE(r.stats.eliminated_vars + r.stats.pure_literals +
                r.stats.fixed_units,
            1u);
}

class SimplifyProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplifyProperty, PreservesSatisfiabilityAndModelsExtend) {
  Rng rng(900 + GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    const int vars = 6 + static_cast<int>(rng.next_below(10));
    const int clauses = static_cast<int>(vars * (1.5 + 3.0 * rng.next_double()));
    const Cnf f = random_3sat(vars, clauses, rng.next_u64());
    const bool expected = brute_force_sat(f);

    const auto r = simplify(f);
    if (r.unsat) {
      EXPECT_FALSE(expected);
      continue;
    }
    const auto solved = sat::solve_cnf(r.cnf);
    EXPECT_EQ(solved.status == sat::Status::kSat, expected);
    if (solved.status == sat::Status::kSat) {
      // The reconstructed model must satisfy the ORIGINAL formula.
      auto model = solved.model;
      model.resize(f.num_vars());
      const auto full = r.extend_model(model);
      EXPECT_TRUE(f.satisfied_by(full));
    }
  }
}

TEST_P(SimplifyProperty, NeverGrowsTheFormula) {
  Rng rng(7700 + GetParam());
  const Cnf f = random_3sat(20, 80, rng.next_u64());
  const auto r = simplify(f);
  EXPECT_LE(r.cnf.num_literals(), f.num_literals() + f.num_vars());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyProperty, ::testing::Range(0, 8));

// Regression: fix_literal used to bump fixed_units unconditionally, so a
// pure-literal fix was double-counted as both pure_literals and
// fixed_units. Each fix must land in exactly one bucket.
TEST(Simplify, FixesCountInExactlyOneBucket) {
  Cnf f;
  f.add_vars(4);
  f.add_unit(pos(0));            // unit: x0
  f.add_binary(neg(0), pos(1));  // propagates to unit: x1
  f.add_binary(neg(2), pos(3));  // x2 occurs only negatively: pure
  f.add_binary(neg(2), neg(3));
  const auto r = simplify(f);
  EXPECT_FALSE(r.unsat);
  EXPECT_EQ(r.stats.fixed_units, 2u);    // x0, x1
  EXPECT_EQ(r.stats.pure_literals, 1u);  // x2 (x3 ends up unconstrained)
  EXPECT_EQ(r.stats.failed_literals, 0u);
  expect_model_extends(f, r);
}

// Regression: finish() used to encode UNSAT as contradictory units on
// variable 0 even for a 0-variable formula containing the empty clause,
// emitting out-of-range literals.
TEST(Simplify, UnsatZeroVarFormulaStaysInRange) {
  Cnf f;  // no variables at all
  const std::vector<Lit> empty;
  f.add_clause(empty);
  const auto r = simplify(f);
  EXPECT_TRUE(r.unsat);
  for (std::size_t i = 0; i < r.cnf.num_clauses(); ++i)
    for (Lit l : r.cnf.clause(i))
      EXPECT_LT(l.var(), r.cnf.num_vars());
  EXPECT_EQ(sat::solve_cnf(r.cnf).status, sat::Status::kUnsat);
}

TEST(Simplify, UnsatResultIsCanonicalEmptyClause) {
  Cnf f;
  f.add_vars(2);
  f.add_unit(pos(0));
  f.add_binary(neg(0), pos(1));
  f.add_binary(neg(0), neg(1));
  const auto r = simplify(f);
  EXPECT_TRUE(r.unsat);
  EXPECT_EQ(r.cnf.num_vars(), 0u);
  ASSERT_EQ(r.cnf.num_clauses(), 1u);
  EXPECT_EQ(r.cnf.clause(0).size(), 0u);
}

TEST(Simplify, ProbingFixesFailedLiterals) {
  // Assuming ~x0 propagates x1 and ~x1: a conflict only visible to
  // probing (plain BCP sees no unit). Every variable occurs in both
  // phases, so pure-literal elimination cannot fix x0 first, and probing
  // runs before self-subsuming resolution could derive the unit x0.
  Cnf f;
  f.add_vars(4);
  f.add_binary(pos(0), pos(1));
  f.add_binary(pos(0), neg(1));
  f.add_ternary(neg(0), pos(2), pos(3));
  f.add_ternary(pos(0), neg(2), neg(3));
  const auto r = simplify(f);
  EXPECT_FALSE(r.unsat);
  EXPECT_GE(r.stats.failed_literals, 1u);
  // x0 fixed true leaves at most (x2 | x3), which later rounds may remove.
  EXPECT_LE(r.cnf.num_clauses(), 1u);
  const auto solved = sat::solve_cnf(r.cnf);
  ASSERT_EQ(solved.status, sat::Status::kSat);
  const auto full = r.extend_model(solved.model);
  ASSERT_EQ(full.size(), f.num_vars());
  EXPECT_TRUE(full[0]);  // the failed literal's negation, replayed
  EXPECT_TRUE(f.satisfied_by(full));
}

TEST(Simplify, ProbingSubstitutesEquivalentLiterals) {
  // x0 <-> x1 via two binaries; x1's other occurrences get rewritten onto
  // x0 and the variable disappears from the output.
  Cnf f;
  f.add_vars(4);
  f.add_binary(neg(0), pos(1));
  f.add_binary(pos(0), neg(1));
  f.add_ternary(pos(1), pos(2), pos(3));
  f.add_ternary(neg(1), neg(2), pos(3));
  const auto r = simplify(f);
  EXPECT_FALSE(r.unsat);
  EXPECT_GE(r.stats.equivalent_literals, 1u);
  EXPECT_LT(r.cnf.num_vars(), f.num_vars());
  const auto solved = sat::solve_cnf(r.cnf);
  ASSERT_EQ(solved.status, sat::Status::kSat);
  const auto full = r.extend_model(solved.model);
  EXPECT_TRUE(f.satisfied_by(full));
  EXPECT_EQ(full[0], full[1]);  // the recorded equivalence holds
}

TEST(Simplify, RemapCompactsVariableRange) {
  Cnf f;
  f.add_vars(6);  // x4 never occurs; x5 is fixed by a unit
  f.add_unit(pos(5));
  f.add_ternary(pos(0), pos(1), pos(2));
  f.add_ternary(neg(0), neg(1), pos(3));
  const auto r = simplify(f);
  ASSERT_FALSE(r.unsat);
  EXPECT_EQ(r.original_vars, 6u);
  EXPECT_LE(r.cnf.num_vars(), 4u);
  EXPECT_EQ(r.var_map[4], SimplifyResult::kUnmapped);
  EXPECT_EQ(r.var_map[5], SimplifyResult::kUnmapped);
  ASSERT_EQ(r.inverse_map.size(), r.cnf.num_vars());
  for (std::uint32_t v = 0; v < r.original_vars; ++v) {
    if (r.var_map[v] != SimplifyResult::kUnmapped) {
      EXPECT_EQ(r.inverse_map[r.var_map[v]], v);
    }
  }
  const auto solved = sat::solve_cnf(r.cnf);
  ASSERT_EQ(solved.status, sat::Status::kSat);
  const auto full = r.extend_model(solved.model);
  ASSERT_EQ(full.size(), 6u);
  EXPECT_TRUE(full[5]);
  EXPECT_TRUE(f.satisfied_by(full));
}

TEST(Simplify, BudgetStopsEarlyButStaysSound) {
  // A zero wall-clock budget: the first clock check stops the run.
  const Cnf f = random_3sat(30, 120, 7);
  SimplifyParams p;
  p.max_seconds = 0.0;
  const auto r = simplify(f, p);
  EXPECT_TRUE(r.stats.budget_exhausted);
  const auto direct = sat::solve_cnf(f);
  if (r.unsat) {
    EXPECT_EQ(direct.status, sat::Status::kUnsat);
  } else {
    const auto solved = sat::solve_cnf(r.cnf);
    EXPECT_EQ(solved.status, direct.status);
    if (solved.status == sat::Status::kSat) {
      auto model = solved.model;
      model.resize(f.num_vars());
      EXPECT_TRUE(f.satisfied_by(r.extend_model(model)));
    }
  }
}

TEST(Simplify, IdempotentOnFixpoint) {
  const Cnf f = random_3sat(15, 60, 42);
  const auto r1 = simplify(f);
  const auto r2 = simplify(r1.cnf);
  EXPECT_EQ(r2.cnf.num_clauses(), r1.cnf.num_clauses() + 0u);
  EXPECT_LE(r2.stats.eliminated_vars, 1u);
}

}  // namespace
}  // namespace csat::cnf

namespace csat::sat {
namespace {

using cnf::Lit;

Lit pos(std::uint32_t v) { return Lit::make(v, false); }
Lit neg(std::uint32_t v) { return Lit::make(v, true); }

TEST(Assumptions, RestrictWithoutPermanence) {
  Solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(a), pos(b)}));

  const Lit assume_na[] = {neg(a)};
  EXPECT_EQ(s.solve_assuming(assume_na), Status::kSat);
  EXPECT_TRUE(s.model()[b]);

  const Lit assume_both[] = {neg(a), neg(b)};
  EXPECT_EQ(s.solve_assuming(assume_both), Status::kUnsat);

  // The assumption is gone: the formula itself is still satisfiable.
  EXPECT_EQ(s.solve(), Status::kSat);
}

TEST(Assumptions, SatisfiedAssumptionsAreSkipped) {
  Solver s;
  const auto a = s.new_var();
  const auto b = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(a)}));  // a fixed at level 0
  const Lit assume[] = {pos(a), pos(b)};
  EXPECT_EQ(s.solve_assuming(assume), Status::kSat);
  EXPECT_TRUE(s.model()[a]);
  EXPECT_TRUE(s.model()[b]);
}

TEST(Assumptions, ConflictingWithRootLevel) {
  Solver s;
  const auto a = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(a)}));
  const Lit assume[] = {neg(a)};
  EXPECT_EQ(s.solve_assuming(assume), Status::kUnsat);
  EXPECT_EQ(s.solve(), Status::kSat);
}

TEST(Assumptions, IncrementalSweepOverCandidates) {
  // (x0 | x1) & (x1 | x2) & (~x0 | ~x2): probe each variable both ways.
  Solver s;
  const auto x0 = s.new_var();
  const auto x1 = s.new_var();
  const auto x2 = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(x0), pos(x1)}));
  ASSERT_TRUE(s.add_clause({pos(x1), pos(x2)}));
  ASSERT_TRUE(s.add_clause({neg(x0), neg(x2)}));
  int sat_count = 0;
  for (std::uint32_t v : {x0, x1, x2}) {
    for (const bool value : {false, true}) {
      const Lit assume[] = {Lit::make(v, !value)};
      if (s.solve_assuming(assume) == Status::kSat) ++sat_count;
    }
  }
  EXPECT_EQ(sat_count, 5);  // only x1=false forces... check: x1=0 => x0 & x2 both true, conflict
}

}  // namespace
}  // namespace csat::sat
