// Google-benchmark microbenchmarks for the logic-synthesis engine — the
// cost model behind the RL agent's action space (each action's latency is
// part of the paper's "transformation time" in total runtime) — and for the
// two kernels under it and the mapper: cut enumeration and LUT mapping.
// Counters report the size reduction each op achieves on the standard
// workload so throughput and quality are visible together.
// BENCH_synth.json holds an interleaved parent/change A/B of this binary
// (tools/bench_ab.py).

#include <benchmark/benchmark.h>

#include "cut/cut_enum.h"
#include "gen/arith.h"
#include "gen/miter.h"
#include "gen/random_circuit.h"
#include "lut/mapper.h"
#include "synth/balance.h"
#include "synth/recipe.h"
#include "synth/refactor.h"
#include "synth/resub.h"
#include "synth/rewrite.h"

using namespace csat;

namespace {

aig::Aig standard_workload(int scale) {
  // A multiplier-equivalence miter: representative of the paper's LEC mix.
  aig::Aig m1, m2;
  {
    const auto a = gen::input_word(m1, scale);
    const auto b = gen::input_word(m1, scale);
    for (aig::Lit l : gen::array_multiply(m1, a, b)) m1.add_po(l);
  }
  {
    const auto a = gen::input_word(m2, scale);
    const auto b = gen::input_word(m2, scale);
    for (aig::Lit l : gen::shift_add_multiply(m2, b, a)) m2.add_po(l);
  }
  return gen::make_miter(m1, m2);
}

template <typename Op>
void run_op_benchmark(benchmark::State& state, Op op) {
  const aig::Aig g = standard_workload(static_cast<int>(state.range(0)));
  std::size_t after = 0;
  for (auto _ : state) {
    const aig::Aig h = op(g);
    after = h.num_ands();
    benchmark::DoNotOptimize(after);
  }
  state.counters["ands_before"] = static_cast<double>(g.num_live_ands());
  state.counters["ands_after"] = static_cast<double>(after);
  state.counters["reduction_pct"] =
      100.0 * (1.0 - static_cast<double>(after) /
                         static_cast<double>(g.num_live_ands()));
}

void BM_Rewrite(benchmark::State& state) {
  run_op_benchmark(state, [](const aig::Aig& g) { return synth::rewrite(g); });
}
void BM_Refactor(benchmark::State& state) {
  run_op_benchmark(state, [](const aig::Aig& g) { return synth::refactor(g); });
}
void BM_Balance(benchmark::State& state) {
  run_op_benchmark(state, [](const aig::Aig& g) { return synth::balance(g); });
}
void BM_Resub(benchmark::State& state) {
  run_op_benchmark(state, [](const aig::Aig& g) { return synth::resub(g); });
}
void BM_Compress2(benchmark::State& state) {
  run_op_benchmark(state, [](const aig::Aig& g) {
    return synth::apply_recipe(g, synth::compress2_recipe());
  });
}

void BM_CutEnum(benchmark::State& state) {
  const aig::Aig g = standard_workload(static_cast<int>(state.range(0)));
  const cut::CutParams params;  // k = 4, 8 cuts: rewrite's and the mapper's
  std::size_t total = 0;
  for (auto _ : state) {
    const cut::CutEnumerator cuts(g, params);
    total = cuts.total_cuts();
    benchmark::DoNotOptimize(total);
  }
  state.counters["cuts"] = static_cast<double>(total);
}

void BM_MapToLuts(benchmark::State& state, lut::CostKind cost) {
  const aig::Aig g = standard_workload(static_cast<int>(state.range(0)));
  lut::MapperParams params;
  params.cost = cost;
  std::size_t luts = 0;
  std::int64_t branching = 0;
  for (auto _ : state) {
    const lut::MappingResult m = lut::map_to_luts(g, params);
    luts = m.num_luts;
    branching = m.total_branching;
    benchmark::DoNotOptimize(luts);
  }
  state.counters["luts"] = static_cast<double>(luts);
  state.counters["branching"] = static_cast<double>(branching);
}

}  // namespace

BENCHMARK(BM_Rewrite)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Refactor)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Balance)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Resub)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Compress2)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CutEnum)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MapToLuts, area, lut::CostKind::kArea)
    ->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MapToLuts, branching, lut::CostKind::kBranching)
    ->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
