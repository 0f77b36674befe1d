#ifndef CSAT_TESTS_TEST_FORMULAS_H
#define CSAT_TESTS_TEST_FORMULAS_H

/// \file test_formulas.h
/// The SAT-model checker, random 3-SAT and the clause-database churn
/// config shared by the test suites. Keep the RNG call order in random_3sat() stable: the
/// fixed-seed suites depend on reproducing the exact same formulas
/// run-to-run.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cnf/cnf.h"
#include "common/rng.h"
#include "sat/solver.h"

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
