#ifndef CSAT_TESTS_TEST_FORMULAS_H
#define CSAT_TESTS_TEST_FORMULAS_H

/// \file test_formulas.h
/// The SAT-model checker, the exhaustive satisfiability reference, random
/// 3-SAT and the clause-database churn config shared by the test suites.
/// Keep the RNG call order in random_3sat() stable: the fixed-seed suites
/// depend on reproducing the exact same formulas run-to-run.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cnf/cnf.h"
#include "common/rng.h"
#include "sat/solver.h"
#include "tt/truth_table.h"

namespace csat::test {

/// Model checker for SAT verdicts: evaluates \p model against every clause
/// of the *original* formula and reports the first violated clause. Every
/// test that receives Status::kSat must pass the returned assignment
/// through this — no solver verdict is trusted unchecked.
inline ::testing::AssertionResult check_model(const cnf::Cnf& formula,
                                              const std::vector<bool>& model) {
  if (model.size() < formula.num_vars()) {
    return ::testing::AssertionFailure()
           << "model covers " << model.size() << " vars, formula has "
           << formula.num_vars();
  }
  for (std::size_t i = 0; i < formula.num_clauses(); ++i) {
    bool satisfied = false;
    for (cnf::Lit l : formula.clause(i)) {
      if (model[l.var()] != l.sign()) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) {
      auto failure = ::testing::AssertionFailure()
                     << "clause " << i << " falsified by model:";
      for (cnf::Lit l : formula.clause(i)) failure << ' ' << l.to_dimacs();
      return failure;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Uniform random 3-SAT with distinct variables per clause.
/// Exhaustive satisfiability for formulas with <= 24 variables, 64
/// assignments per pass over the clauses: lane j of block b is assignment
/// 64 b + j, so variables 0-5 read the lane's bits (tt::kVarWord) and the
/// others the block's.
inline bool brute_force_sat(const cnf::Cnf& f) {
  const std::uint32_t n = f.num_vars();
  CSAT_CHECK(n <= 24);
  const std::uint64_t lanes = n >= 6 ? ~0ULL : tt::word_mask(static_cast<int>(n));
  const std::uint64_t blocks = n > 6 ? 1ULL << (n - 6) : 1;
  std::vector<std::uint64_t> value(n);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    for (std::uint32_t v = 0; v < n; ++v)
      value[v] = v < 6 ? tt::kVarWord[v] : ((b >> (v - 6)) & 1) != 0 ? ~0ULL : 0;
    std::uint64_t sat = lanes;
    for (std::size_t c = 0; c < f.num_clauses() && sat != 0; ++c) {
      std::uint64_t any = 0;
      for (const cnf::Lit l : f.clause(c))
        any |= value[l.var()] ^ (l.sign() ? ~0ULL : 0);
      sat &= any;
    }
    if (sat != 0) return true;
  }
  return false;
}

inline cnf::Cnf random_3sat(int vars, int clauses, std::uint64_t seed) {
  Rng rng(seed);
  cnf::Cnf f;
  f.add_vars(static_cast<std::uint32_t>(vars));
  for (int i = 0; i < clauses; ++i) {
    std::vector<cnf::Lit> c;
    while (c.size() < 3) {
      const auto v = static_cast<std::uint32_t>(
          rng.next_below(static_cast<std::uint64_t>(vars)));
      const cnf::Lit l = cnf::Lit::make(v, rng.next_bool());
      bool dup = false;
      for (cnf::Lit x : c) dup |= x.var() == l.var();
      if (!dup) c.push_back(l);
    }
    f.add_clause(c);
  }
  return f;
}

/// Maximal clause-database churn per conflict: constant learnt-DB
/// reduction and frequent restarts — every subsystem that deletes,
/// relocates or remaps watchers fires constantly.
inline sat::SolverConfig churn_config() {
  sat::SolverConfig cfg;
  cfg.reduce_first = 60;
  cfg.reduce_increment = 15;
  cfg.restart.luby_unit = 16;
  return cfg;
}

}  // namespace csat::test

#endif  // CSAT_TESTS_TEST_FORMULAS_H
