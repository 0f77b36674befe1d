// Golden outputs of the CNF back end: the preprocessor's output formula,
// variable maps, reconstruction stack, counters and DRAT text on a fixed
// set of formulas, and the search counts of both CDCL cores (sat::Solver
// and sat::CircuitSolver) on fixed sets of solves. The simplifier and
// default-solver constants were recorded from the per-clause-vector
// simplifier and the reset-on-failure clause minimizer; the circuit
// constants from the circuit core's separate clause database, before both
// cores moved onto sat/clause_db. The churn rows and the two default rows
// past 3,000 conflicts were re-recorded when clause vivification was
// deleted. A change that alters a formula or a search step changes a row,
// and must re-record it and say why.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "cnf/cnf_to_aig.h"
#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "gen/arith.h"
#include "gen/miter.h"
#include "gen/pigeonhole.h"
#include "gen/suite.h"
#include "lut/lut_to_cnf.h"
#include "lut/mapper.h"
#include "sat/circuit_solver.h"
#include "sat/proof.h"
#include "sat/solver.h"
#include "synth/recipe.h"
#include "test_formulas.h"

namespace csat {
namespace {

class Fingerprint {
 public:
  void add(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
    h_ ^= h_ >> 29;
  }

  void add(const cnf::Cnf& f) {
    add(f.num_vars());
    add(f.num_clauses());
    for (std::size_t i = 0; i < f.num_clauses(); ++i) add(f.clause(i));
  }

  void add(std::span<const cnf::Lit> clause) {
    add(clause.size());
    for (cnf::Lit l : clause) add(l.x);
  }

  void add(const std::string& text) {
    add(text.size());
    for (unsigned char c : text) add(c);
  }

  void add(const cnf::SimplifyResult& r) {
    add(r.cnf);
    add(r.unsat ? 1 : 0);
    add(r.original_vars);
    for (std::uint32_t v : r.var_map) add(v);
    for (std::uint32_t v : r.inverse_map) add(v);
    add(r.stack.size());
    for (const auto& e : r.stack) {
      add(static_cast<std::uint64_t>(e.kind));
      add(e.var);
      add(e.binding.x);
      add(e.last_clause - e.first_clause);
      for (std::uint32_t k = e.first_clause; k < e.last_clause; ++k)
        add(r.eliminated.clause(k));
    }
    const cnf::SimplifyStats& s = r.stats;
    for (std::uint64_t c :
         {s.fixed_units, s.pure_literals, s.failed_literals,
          s.equivalent_literals, s.probed_literals, s.eliminated_vars,
          s.subsumed_clauses, s.strengthened_clauses, s.removed_clauses,
          s.propagations, s.resolutions})
      add(c);
    add(s.budget_exhausted ? 1 : 0);
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void expect_row(const char* name, const Fingerprint& fp, std::uint64_t want) {
  EXPECT_EQ(fp.value(), want)
      << name << ": got 0x" << std::hex << fp.value() << ", want 0x" << want;
}

/// The Tseitin CNF and the compress2 + area-mapped (k = 4) LUT CNF of every
/// instance of a fixed suite draw, then two crafted families.
std::vector<cnf::Cnf> golden_formulas() {
  gen::SuiteParams p;
  p.count = 16;
  p.seed = 201;
  lut::MapperParams mp;
  mp.lut_size = 4;
  mp.cost = lut::CostKind::kArea;
  std::vector<cnf::Cnf> out;
  for (const auto& inst : gen::make_suite(p)) {
    out.push_back(cnf::tseitin_encode(inst.circuit).cnf);
    const aig::Aig g =
        synth::apply_recipe(inst.circuit, synth::compress2_recipe());
    out.push_back(lut::lut_to_cnf(lut::map_to_luts(g, mp).netlist).cnf);
  }
  out.push_back(test::random_3sat(120, 510, 11));
  out.push_back(gen::pigeonhole(6));
  return out;
}

TEST(SimplifyGolden, OutputsMatchParent) {
  const auto formulas = golden_formulas();
  Fingerprint plain, traced;
  for (const cnf::Cnf& f : formulas) {
    plain.add(cnf::simplify(f));

    std::ostringstream drat;
    sat::TextDratWriter writer(drat);
    cnf::SimplifyParams with_proof;
    with_proof.proof = &writer;
    traced.add(cnf::simplify(f, with_proof));
    writer.flush();
    traced.add(drat.str());
  }
  expect_row("default", plain, 0x81e45608d3a83735ULL);
  expect_row("proof", traced, 0xecbb8ebd89088e1aULL);
}

/// A commuted multiplier miter: array multiplier against shift-and-add
/// with the operands swapped. Equivalent, so UNSAT.
aig::Aig commuted_multiplier_miter(int width) {
  aig::Aig g1, g2;
  {
    const auto a = gen::input_word(g1, width), b = gen::input_word(g1, width);
    for (aig::Lit l : gen::array_multiply(g1, a, b)) g1.add_po(l);
  }
  {
    const auto a = gen::input_word(g2, width), b = gen::input_word(g2, width);
    for (aig::Lit l : gen::shift_add_multiply(g2, b, a)) g2.add_po(l);
  }
  return gen::make_miter(g1, g2);
}

TEST(SolverGolden, SearchCountsMatchParent) {
  // The two rows that reach 3,000 conflicts were re-recorded when clause
  // vivification (a pass every 3,000 conflicts) was deleted.
  struct Row {
    const char* name;
    cnf::Cnf formula;
    sat::Status status;
    std::uint64_t decisions, conflicts, propagations, learnt_literals,
        minimized_lits;
  };
  const Row rows[] = {
      {"adder miter w24", cnf::tseitin_encode(gen::make_adder_miter(24)).cnf,
       sat::Status::kUnsat, 2041, 914, 76267, 10337, 1677},
      {"commuted multiplier w5",
       cnf::tseitin_encode(commuted_multiplier_miter(5)).cnf,
       sat::Status::kUnsat, 2167, 1861, 236302, 22216, 18938},
      {"pigeonhole 7", gen::pigeonhole(7), sat::Status::kUnsat, 5215, 4159,
       68893, 65495, 11813},
      {"random 3-SAT 150/630", test::random_3sat(150, 630, 3),
       sat::Status::kSat, 866, 676, 27797, 5963, 1430},
      {"random 3-SAT 200/852", test::random_3sat(200, 852, 4),
       sat::Status::kUnsat, 21343, 17580, 892422, 180430, 66513},
  };
  for (const Row& row : rows) {
    const sat::SolveResult r = sat::solve_cnf(row.formula);
    const sat::Stats& s = r.stats;
    EXPECT_EQ(r.status, row.status) << row.name;
    EXPECT_EQ(s.decisions, row.decisions) << row.name;
    EXPECT_EQ(s.conflicts, row.conflicts) << row.name;
    EXPECT_EQ(s.propagations, row.propagations) << row.name;
    EXPECT_EQ(s.learnt_literals, row.learnt_literals) << row.name;
    EXPECT_EQ(s.minimized_lits, row.minimized_lits) << row.name;
  }
}

TEST(SolverGolden, ChurnCountsMatchParent) {
  // test::churn_config() reduces and collects every few dozen conflicts,
  // so these rows pin the clause-database paths the default solves above
  // barely reach. Re-recorded when clause vivification, which the churn
  // config ran every 100 conflicts, was deleted.
  struct Row {
    const char* name;
    cnf::Cnf formula;
    sat::Status status;
    std::uint64_t decisions, conflicts, propagations, learnt_literals,
        minimized_lits, removed, reductions, arena_gcs;
  };
  const Row rows[] = {
      {"adder miter w24", cnf::tseitin_encode(gen::make_adder_miter(24)).cnf,
       sat::Status::kUnsat, 2624, 1006, 81482, 7490, 1370, 594, 8, 3},
      {"commuted multiplier w5",
       cnf::tseitin_encode(commuted_multiplier_miter(5)).cnf,
       sat::Status::kUnsat, 3583, 2854, 385637, 33507, 30264, 2405, 16, 15},
      {"pigeonhole 7", gen::pigeonhole(7), sat::Status::kUnsat, 23237, 16735,
       310173, 292147, 51346, 15434, 43, 43},
      {"random 3-SAT 150/630", test::random_3sat(150, 630, 3),
       sat::Status::kSat, 1890, 1390, 56686, 12425, 2927, 1070, 10, 6},
  };
  for (const Row& row : rows) {
    const sat::SolveResult r =
        sat::solve_cnf(row.formula, test::churn_config());
    const sat::Stats& s = r.stats;
    EXPECT_EQ(r.status, row.status) << row.name;
    EXPECT_EQ(s.decisions, row.decisions) << row.name;
    EXPECT_EQ(s.conflicts, row.conflicts) << row.name;
    EXPECT_EQ(s.propagations, row.propagations) << row.name;
    EXPECT_EQ(s.learnt_literals, row.learnt_literals) << row.name;
    EXPECT_EQ(s.minimized_lits, row.minimized_lits) << row.name;
    EXPECT_EQ(s.removed, row.removed) << row.name;
    EXPECT_EQ(s.reductions, row.reductions) << row.name;
    EXPECT_EQ(s.arena_gcs, row.arena_gcs) << row.name;
  }
}

TEST(CircuitGolden, SearchCountsMatchParent) {
  // The circuit core at its default config (Luby-64 restarts), plus one
  // churn row with the reduction cadence of the circuit suite's
  // budgeted-slice invariant test (a reduction and an arena collection
  // every few dozen conflicts). The commuted 6-bit multiplier is the one
  // default row that reduces and collects. The two kissat rows run the
  // preset the pipeline and the server default to (EMA restarts); they were
  // recorded when the circuit core took the preset's restart policy.
  sat::CircuitSolverConfig churn;
  churn.reduce_first = 40;
  churn.reduce_increment = 10;
  const sat::CircuitSolverConfig kissat =
      sat::CircuitSolverConfig::from_cnf(sat::SolverConfig::kissat_like());
  struct Row {
    const char* name;
    aig::Aig circuit;
    sat::CircuitSolverConfig config;
    std::uint64_t decisions, conflicts, propagations, gate_propagations,
        learnt_literals, removed, reductions, arena_gcs, max_frontier;
  };
  const Row rows[] = {
      {"adder miter w24", gen::make_adder_miter(24), {}, 1884, 657, 48699,
       43671, 12219, 0, 0, 0, 212},
      {"commuted multiplier w5", commuted_multiplier_miter(5), {}, 2601, 1537,
       172098, 164751, 27090, 0, 0, 0, 89},
      {"commuted multiplier w6", commuted_multiplier_miter(6), {}, 12278,
       7607, 1207929, 1154351, 195255, 4581, 3, 3, 212},
      {"bridged pigeonhole 8", cnf::cnf_to_aig(gen::pigeonhole(8)), {}, 2588,
       1753, 68451, 59317, 13524, 0, 0, 0, 316},
      {"churn adder miter w24", gen::make_adder_miter(24), churn, 30919,
       12152, 1168950, 953760, 247588, 10760, 45, 45, 439},
      {"kissat adder miter w24", gen::make_adder_miter(24), kissat, 2061, 719,
       47636, 42979, 11911, 0, 0, 0, 213},
      {"kissat commuted multiplier w5", commuted_multiplier_miter(5), kissat,
       2602, 1593, 185278, 177642, 27783, 0, 0, 0, 134},
  };
  for (const Row& row : rows) {
    const sat::CircuitSolveResult r =
        sat::solve_circuit(row.circuit, row.config);
    const sat::CircuitStats& s = r.stats;
    EXPECT_EQ(r.status, sat::Status::kUnsat) << row.name;
    EXPECT_EQ(s.decisions, row.decisions) << row.name;
    EXPECT_EQ(s.conflicts, row.conflicts) << row.name;
    EXPECT_EQ(s.propagations, row.propagations) << row.name;
    EXPECT_EQ(s.gate_propagations, row.gate_propagations) << row.name;
    EXPECT_EQ(s.learnt_literals, row.learnt_literals) << row.name;
    EXPECT_EQ(s.removed, row.removed) << row.name;
    EXPECT_EQ(s.reductions, row.reductions) << row.name;
    EXPECT_EQ(s.arena_gcs, row.arena_gcs) << row.name;
    EXPECT_EQ(s.max_frontier, row.max_frontier) << row.name;
  }
}

}  // namespace
}  // namespace csat
