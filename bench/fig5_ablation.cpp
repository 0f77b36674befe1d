// Reproduces Fig. 5: ablation studies.
//   1. Effectiveness of the RL agent — "Ours" (trained DQN policy) vs
//      "w/o RL" (random synthesis policy, T steps). Paper: 11.95% faster.
//   2. Effectiveness of the cost-customized mapper — "Ours" vs "C. Mapper"
//      (same recipe, conventional area/delay cost). Paper: the
//      conventional mapper is 50.80% slower.
//
//   ./fig5_ablation [--instances=N] [--seed=S] [--train=EPISODES]
//                   [--budget=CONFLICTS] [--timeout-charge=SECONDS] [--full]

#include <cstdio>

#include "bench_util.h"
#include "core/pipeline.h"
#include "gen/suite.h"

using namespace csat;

namespace {
constexpr const char* kUsage =
    "usage: fig5_ablation [--instances=N] [--seed=S] [--train=EPISODES]\n"
    "                     [--budget=CONFLICTS] [--timeout-charge=SECONDS]"
    " [--full]\n";
}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv, bench::experiment_keys(), kUsage);
  const bench::Experiment e = bench::parse_experiment(flags);

  std::printf("=== Fig. 5: ablation studies ===\n");
  std::printf("(%d test instances, kissat-like solver, budget %llu conflicts)\n\n",
              e.instances, static_cast<unsigned long long>(e.budget));

  const rl::DqnAgent agent = bench::train_paper_agent(e.train_episodes);
  const auto suite = gen::make_test_suite(e.instances, e.seed);
  const sat::SolverConfig solver = sat::SolverConfig::kissat_like();

  const auto ours = bench::run_arm(e, suite, core::PipelineMode::kOurs, solver,
                                   &agent);
  const auto worl = bench::run_arm(e, suite, core::PipelineMode::kOursRandom,
                                   solver, nullptr);
  const auto cmap = bench::run_arm(
      e, suite, core::PipelineMode::kOursAreaMapper, solver, &agent);

  bench::print_cactus("Ours", ours.runtimes, ours.solved, e.timeout_charge);
  bench::print_cactus("w/o RL", worl.runtimes, worl.solved, e.timeout_charge);
  bench::print_cactus("C. Mapper", cmap.runtimes, cmap.solved, e.timeout_charge);

  std::printf("\n[RL agent ablation]   w/o RL total %.2fs vs Ours %.2fs — "
              "Ours reduces %.2f%% (paper: 11.95%%)\n",
              worl.total, ours.total,
              worl.total > 0 ? 100.0 * (worl.total - ours.total) / worl.total
                             : 0.0);
  std::printf("[mapper ablation]     C. Mapper total %.2fs vs Ours %.2fs — "
              "conventional is %.2f%% slower (paper: 50.80%%)\n",
              cmap.total, ours.total,
              ours.total > 0 ? 100.0 * (cmap.total - ours.total) / ours.total
                             : 0.0);
  return 0;
}
