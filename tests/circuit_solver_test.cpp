// Tests for the circuit-native CDCL backend: trivial goal shapes,
// brute-force and CNF-arm agreement, witness/model validity, the
// check_justification() invariant walker between budgeted solve slices
// under DB-churn configs, the preset's restart policy reaching the core,
// the kernel rules both cores share (reduction schedule, learnt count),
// and determinism on rerun.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "aig/aig.h"
#include "aig/simulate.h"
#include "cnf/cnf_to_aig.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "gen/miter.h"
#include "gen/pigeonhole.h"
#include "gen/suite.h"
#include "sat/circuit_solver.h"
#include "sat/solver.h"
#include "test_formulas.h"

namespace csat {
namespace {

using gen::pigeonhole;
using test::check_model;
using test::random_3sat;

/// Evaluates the circuit on \p pi_values and reports whether some PO is 1 —
/// the ground-truth check for every circuit-arm witness.
bool some_po_true(const aig::Aig& g, const std::vector<bool>& pi_values) {
  for (const bool po : aig::evaluate(g, pi_values))  // one bool per PO
    if (po) return true;
  return false;
}

/// Cross-checks a circuit-arm model against the Tseitin encoding of the
/// same AIG: every encoded node's CNF variable must take the node's value,
/// and the resulting assignment must satisfy the whole CNF.
void expect_model_matches_tseitin(const aig::Aig& g,
                                  const sat::CircuitSolveResult& r,
                                  const std::string& tag) {
  const auto enc = cnf::tseitin_encode(g);
  if (enc.trivially_sat || enc.trivially_unsat) return;
  std::vector<bool> model(enc.cnf.num_vars(), false);
  for (std::uint32_t node = 0; node < g.num_nodes(); ++node) {
    const std::uint32_t var = enc.node2var[node];
    if (var == UINT32_MAX) continue;
    model[var] = r.node_values[node] != 0;
  }
  EXPECT_TRUE(enc.cnf.satisfied_by(model)) << tag;
}

/// Solves \p g on both arms and asserts verdict agreement; returns the
/// verdict. SAT witnesses are evaluated against the AIG and cross-checked
/// against the Tseitin encoding.
sat::Status solve_both_arms(const aig::Aig& g, const std::string& tag) {
  const auto circuit = sat::solve_circuit(g);
  EXPECT_NE(circuit.status, sat::Status::kUnknown) << tag;
  if (circuit.status == sat::Status::kSat) {
    EXPECT_TRUE(some_po_true(g, circuit.witness)) << tag;
    expect_model_matches_tseitin(g, circuit, tag);
  }
  const auto enc = cnf::tseitin_encode(g);
  sat::Status cnf_status = sat::Status::kUnknown;
  if (enc.trivially_sat) {
    cnf_status = sat::Status::kSat;
  } else if (enc.trivially_unsat) {
    cnf_status = sat::Status::kUnsat;
  } else {
    cnf_status = sat::solve_cnf(enc.cnf).status;
  }
  EXPECT_EQ(circuit.status, cnf_status) << tag;
  return circuit.status;
}

TEST(CircuitSolver, TrivialGoalShapes) {
  {
    aig::Aig g;  // no POs at all: nothing can be 1
    (void)g.add_pi();
    EXPECT_EQ(sat::solve_circuit(g).status, sat::Status::kUnsat);
  }
  {
    aig::Aig g;  // constant-TRUE PO
    g.add_po(aig::kTrue);
    const auto r = sat::solve_circuit(g);
    EXPECT_EQ(r.status, sat::Status::kSat);
  }
  {
    aig::Aig g;  // constant-FALSE PO only
    (void)g.add_pi();
    g.add_po(aig::kFalse);
    EXPECT_EQ(sat::solve_circuit(g).status, sat::Status::kUnsat);
  }
  {
    aig::Aig g;  // tautological PO pair: x and !x
    const aig::Lit x = g.add_pi();
    g.add_po(x);
    g.add_po(!x);
    const auto r = sat::solve_circuit(g);
    EXPECT_EQ(r.status, sat::Status::kSat);
    EXPECT_TRUE(some_po_true(g, r.witness));
  }
  {
    aig::Aig g;  // single negated-PI goal: unit propagation only
    const aig::Lit x = g.add_pi();
    g.add_po(!x);
    const auto r = sat::solve_circuit(g);
    EXPECT_EQ(r.status, sat::Status::kSat);
    ASSERT_EQ(r.witness.size(), 1u);
    EXPECT_FALSE(r.witness[0]);
  }
  {
    aig::Aig g;  // AND of a PI with its own complement: constant false
    const aig::Lit x = g.add_pi();
    g.add_po(g.and2(x, !x));
    EXPECT_EQ(sat::solve_circuit(g).status, sat::Status::kUnsat);
  }
  {
    aig::Aig g;  // a 3-input AND: justification must reach all fanins
    const aig::Lit a = g.add_pi();
    const aig::Lit b = g.add_pi();
    const aig::Lit c = g.add_pi();
    g.add_po(g.and2(g.and2(a, b), c));
    const auto r = sat::solve_circuit(g);
    EXPECT_EQ(r.status, sat::Status::kSat);
    EXPECT_TRUE(r.witness[0] && r.witness[1] && r.witness[2]);
  }
}

TEST(CircuitSolver, AgreesWithBruteForceOnBridgedCnf) {
  // Small random 3-SAT through the CNF->AIG bridge vs exhaustive
  // enumeration. PI order equals variable order, so the circuit witness is
  // directly a CNF model.
  Rng rng(0xC19C517);
  int sat_count = 0;
  int unsat_count = 0;
  for (int i = 0; i < 60; ++i) {
    const int vars = 6 + static_cast<int>(rng.next_below(9));
    const double ratio = 3.0 + 0.01 * static_cast<double>(rng.next_below(221));
    const cnf::Cnf f =
        random_3sat(vars, static_cast<int>(vars * ratio), rng.next_u64());
    bool brute_sat = false;
    std::vector<bool> model(f.num_vars());
    for (std::uint64_t m = 0; m < (1ULL << f.num_vars()) && !brute_sat; ++m) {
      for (std::uint32_t v = 0; v < f.num_vars(); ++v) model[v] = (m >> v) & 1;
      brute_sat = f.satisfied_by(model);
    }
    const aig::Aig g = cnf::cnf_to_aig(f);
    const auto r = sat::solve_circuit(g);
    EXPECT_EQ(r.status,
              brute_sat ? sat::Status::kSat : sat::Status::kUnsat)
        << "bridged random3sat[" << i << "]";
    if (r.status == sat::Status::kSat) {
      EXPECT_TRUE(check_model(f, r.witness)) << i;
      (brute_sat ? sat_count : unsat_count) += 0;  // counted below
      ++sat_count;
    } else {
      ++unsat_count;
    }
  }
  EXPECT_GT(sat_count, 5);
  EXPECT_GT(unsat_count, 5);
}

TEST(CircuitSolver, AdderMitersAndInjectedBugs) {
  for (const int width : {2, 4, 8}) {
    const aig::Aig miter = gen::make_adder_miter(width);
    EXPECT_EQ(solve_both_arms(miter, "adder_miter(" + std::to_string(width) +
                                         ")"),
              sat::Status::kUnsat);
    // A miter strash-folded to a constant PO gets that PO complemented.
    const aig::Aig buggy = gen::inject_bug(miter, 0xB06 + width);
    // A mutated miter is almost always satisfiable; whatever the verdict,
    // both arms must agree (solve_both_arms asserts that).
    solve_both_arms(buggy, "buggy_adder_miter(" + std::to_string(width) + ")");
  }
}

TEST(CircuitSolver, SuiteInstancesAgreeWithCnfArm) {
  gen::SuiteParams params;
  params.count = 40;
  params.seed = 20260808;
  params.multiplier = {3, 4, 0.30};
  int sat_count = 0;
  int unsat_count = 0;
  for (const auto& inst : gen::make_suite(params)) {
    const auto verdict = solve_both_arms(inst.circuit, inst.name);
    if (verdict == sat::Status::kSat) ++sat_count;
    if (verdict == sat::Status::kUnsat) ++unsat_count;
  }
  EXPECT_GT(sat_count, 0);
  EXPECT_GT(unsat_count, 0);
}

TEST(CircuitSolver, JustificationInvariantsHoldBetweenBudgetedSlices) {
  // Churn config: reduce the learnt DB every few dozen conflicts and restart
  // 16 conflicts into every slice, so slices cross reduction, arena-GC and
  // restart boundaries constantly, then assert the full invariant walker
  // between every slice. Each solve() starts a new Luby sequence, so at the
  // default unit of 64 a 25-conflict slice would never restart; at unit 8
  // the random instance finishes before its first reduction.
  sat::CircuitSolverConfig cfg;
  cfg.reduce_first = 40;
  cfg.reduce_increment = 10;
  cfg.restart.luby_unit = 16;
  const auto run_sliced = [&](const aig::Aig& g, const std::string& tag,
                              sat::Status expected) {
    sat::CircuitSolver solver(cfg);
    solver.load(g);
    EXPECT_TRUE(solver.check_justification()) << tag << " after load";
    sat::Limits lim;
    lim.max_conflicts = 25;
    sat::Status status = sat::Status::kUnknown;
    int slices = 0;
    while (status == sat::Status::kUnknown && slices < 10000) {
      status = solver.solve(lim);
      ++slices;
      ASSERT_TRUE(solver.check_justification())
          << tag << " after slice " << slices;
    }
    EXPECT_EQ(status, expected) << tag;
    EXPECT_GT(slices, 1) << tag << ": budget never paused the search";
    EXPECT_GT(solver.stats().reductions, 0u) << tag;
    EXPECT_GT(solver.stats().restarts, 0u) << tag;
  };
  run_sliced(gen::make_adder_miter(8), "adder_miter(8)", sat::Status::kUnsat);
  run_sliced(cnf::cnf_to_aig(pigeonhole(5)), "pigeonhole(5)",
             sat::Status::kUnsat);
  run_sliced(cnf::cnf_to_aig(random_3sat(60, 258, 0x5EED5)),
             "random3sat(60,258)",
             sat::solve_cnf(random_3sat(60, 258, 0x5EED5)).status);
}

TEST(CircuitSolver, KissatPresetRestartsReachTheCircuitCore) {
  using Kind = sat::RestartConfig::Kind;
  const auto kissat =
      sat::CircuitSolverConfig::from_cnf(sat::SolverConfig::kissat_like());
  const auto cadical =
      sat::CircuitSolverConfig::from_cnf(sat::SolverConfig::cadical_like());
  EXPECT_EQ(kissat.restart.kind, Kind::kEma);
  EXPECT_EQ(cadical.restart.kind, Kind::kLuby);
  EXPECT_EQ(cadical.restart.luby_unit, 100u);
  // The 64-bit adder-equivalence miter takes about 31,600 conflicts on
  // Luby-64 restarts and about 2,900 on the preset's EMA restarts.
  sat::Limits lim;
  lim.max_conflicts = 10000;
  const auto r = sat::solve_circuit(gen::make_adder_miter(64), kissat, lim);
  EXPECT_EQ(r.status, sat::Status::kUnsat);
  EXPECT_GT(r.stats.restarts, 0u);
}

TEST(CircuitSolver, ResumedSolveKeepsTheReductionSchedule) {
  // The reduction schedule is set once per solver: a solve() that resumes
  // after a budget stop continues it (the next threshold after 2000 is
  // 4300) instead of starting over at reduce_first.
  sat::CircuitSolver solver(
      sat::CircuitSolverConfig::from_cnf(sat::SolverConfig::kissat_like()));
  solver.load(gen::make_adder_miter(64));
  sat::Limits limits;
  limits.max_conflicts = 2500;
  ASSERT_EQ(solver.solve(limits), sat::Status::kUnknown);
  EXPECT_EQ(solver.stats().reductions, 1u);
  limits.max_conflicts = 1;
  EXPECT_EQ(solver.solve(limits), sat::Status::kUnknown);
  EXPECT_EQ(solver.stats().reductions, 1u);
}

TEST(CircuitSolver, BothCoresCountOneLearntClausePerConflict) {
  // `learned` counts every clause learned from a conflict, units included,
  // on both cores: on an UNSAT run that is every conflict but the last,
  // which happens at level 0.
  for (const int width : {16, 24, 32}) {
    const aig::Aig miter = gen::make_adder_miter(width);
    const auto circuit = sat::solve_circuit(miter);
    ASSERT_EQ(circuit.status, sat::Status::kUnsat) << width;
    EXPECT_EQ(circuit.stats.learned, circuit.stats.conflicts - 1) << width;
    const auto cnf = sat::solve_cnf(cnf::tseitin_encode(miter).cnf);
    ASSERT_EQ(cnf.status, sat::Status::kUnsat) << width;
    EXPECT_EQ(cnf.stats.learned, cnf.stats.conflicts - 1) << width;
  }
}

TEST(CircuitSolver, DeterministicOnRerun) {
  const aig::Aig g = gen::make_adder_miter(6);
  const auto snapshot = [](const sat::CircuitStats& s) {
    return std::make_tuple(s.decisions, s.justification_decisions,
                           s.goal_decisions, s.conflicts, s.propagations,
                           s.gate_propagations, s.binary_props, s.restarts,
                           s.learned, s.learnt_literals, s.removed,
                           s.reductions, s.frontier_inserts, s.max_frontier);
  };
  const auto a = sat::solve_circuit(g);
  const auto b = sat::solve_circuit(g);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(snapshot(a.stats), snapshot(b.stats));
  EXPECT_EQ(a.witness, b.witness);
  EXPECT_EQ(a.node_values, b.node_values);
}

TEST(CircuitSolver, StatsArePlausible) {
  const aig::Aig g = gen::make_adder_miter(8);
  const auto r = sat::solve_circuit(g);
  EXPECT_EQ(r.status, sat::Status::kUnsat);
  EXPECT_GT(r.stats.conflicts, 0u);
  EXPECT_GT(r.stats.gate_propagations, 0u);
  EXPECT_GT(r.stats.justification_decisions, 0u);
  EXPECT_GT(r.stats.frontier_inserts, 0u);
  EXPECT_EQ(r.stats.decisions,
            r.stats.justification_decisions + r.stats.goal_decisions);
}

}  // namespace
}  // namespace csat
