// Google-benchmark microbenchmarks for the CNF back end: the preprocessor
// (cnf::simplify) over every Tseitin CNF and every compress2 + area-mapped
// LUT CNF of the SimplifyGolden suite draw, one CDCL solve whose conflict
// analysis is dominated by clause minimization (the commuted 5-bit
// multiplier miter), and one circuit-native solve that reduces and
// collects its learnt clauses (the commuted 6-bit multiplier miter through
// sat::solve_circuit). Each benchmark reports the size of its input
// (clauses, literals) or its search counts as user counters; a change that
// must not alter search keeps the search counts equal. BENCH_simplify.json
// and BENCH_clausedb.json hold interleaved parent/change A/Bs of this
// binary (tools/bench_ab.py).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "gen/arith.h"
#include "gen/miter.h"
#include "gen/suite.h"
#include "lut/lut_to_cnf.h"
#include "lut/mapper.h"
#include "sat/circuit_solver.h"
#include "sat/solver.h"
#include "synth/recipe.h"

using namespace csat;

namespace {

enum class Encoding { kTseitin, kLut };

/// The SimplifyGolden draw (tests/cnf_golden_test.cpp), one encoding.
std::vector<cnf::Cnf> golden_formulas(Encoding encoding) {
  gen::SuiteParams p;
  p.count = 16;
  p.seed = 201;
  lut::MapperParams mp;
  mp.lut_size = 4;
  mp.cost = lut::CostKind::kArea;
  std::vector<cnf::Cnf> out;
  for (const auto& inst : gen::make_suite(p)) {
    if (encoding == Encoding::kTseitin) {
      out.push_back(cnf::tseitin_encode(inst.circuit).cnf);
    } else {
      const aig::Aig g =
          synth::apply_recipe(inst.circuit, synth::compress2_recipe());
      out.push_back(lut::lut_to_cnf(lut::map_to_luts(g, mp).netlist).cnf);
    }
  }
  return out;
}

void report_size(benchmark::State& state, const std::vector<cnf::Cnf>& fs) {
  std::size_t clauses = 0;
  std::size_t literals = 0;
  for (const cnf::Cnf& f : fs) {
    clauses += f.num_clauses();
    literals += f.num_literals();
  }
  state.counters["clauses"] = static_cast<double>(clauses);
  state.counters["literals"] = static_cast<double>(literals);
}

void BM_Simplify(benchmark::State& state, Encoding encoding) {
  const std::vector<cnf::Cnf> formulas = golden_formulas(encoding);
  std::uint64_t out_clauses = 0;
  for (auto _ : state) {
    out_clauses = 0;
    for (const cnf::Cnf& f : formulas) {
      const cnf::SimplifyResult r = cnf::simplify(f);
      out_clauses += r.cnf.num_clauses();
    }
    benchmark::DoNotOptimize(out_clauses);
  }
  report_size(state, formulas);
  state.counters["out_clauses"] = static_cast<double>(out_clauses);
}

/// Commuted multiplier miter: array multiplier against shift-and-add with
/// the operands swapped (UNSAT).
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

void BM_SolveCnf_mul5(benchmark::State& state) {
  const cnf::Cnf formula =
      cnf::tseitin_encode(commuted_multiplier_miter(5)).cnf;
  sat::Stats stats;
  for (auto _ : state) {
    const sat::SolveResult r = sat::solve_cnf(formula);
    stats = r.stats;
    benchmark::DoNotOptimize(r.status);
  }
  report_size(state, {formula});
  state.counters["conflicts"] = static_cast<double>(stats.conflicts);
  state.counters["decisions"] = static_cast<double>(stats.decisions);
  state.counters["propagations"] = static_cast<double>(stats.propagations);
  state.counters["minimized_lits"] = static_cast<double>(stats.minimized_lits);
}

void BM_SolveCircuit_mul6(benchmark::State& state) {
  const aig::Aig circuit = commuted_multiplier_miter(6);
  sat::CircuitStats stats;
  for (auto _ : state) {
    const sat::CircuitSolveResult r = sat::solve_circuit(circuit);
    stats = r.stats;
    benchmark::DoNotOptimize(r.status);
  }
  state.counters["conflicts"] = static_cast<double>(stats.conflicts);
  state.counters["decisions"] = static_cast<double>(stats.decisions);
  state.counters["propagations"] = static_cast<double>(stats.propagations);
  state.counters["gate_propagations"] =
      static_cast<double>(stats.gate_propagations);
  state.counters["reductions"] = static_cast<double>(stats.reductions);
  state.counters["arena_gcs"] = static_cast<double>(stats.arena_gcs);
}

}  // namespace

BENCHMARK_CAPTURE(BM_Simplify, tseitin, Encoding::kTseitin)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Simplify, lut, Encoding::kLut)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SolveCnf_mul5)->Name("BM_SolveCnf/mul5")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SolveCircuit_mul6)->Name("BM_SolveCircuit/mul6")->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
