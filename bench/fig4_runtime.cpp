// Reproduces Fig. 4: number of solved instances vs total runtime for the
// three pipelines — Baseline (direct Tseitin), Comp. (Eén-Mishchenko-
// Sörensson-style fixed script + size-oriented mapping) and Ours (RL recipe
// + cost-customized mapping) — under two CDCL presets standing in for
// Kissat 4.0 (panel a) and CaDiCaL 2.0 (panel c).
//
// Total runtime per the paper includes preprocessing (agent inference +
// transformations) and solving; timed-out instances are charged the full
// budget (the paper charges 1000 s).
//
// A fourth row, Baseline + prelude, runs Baseline on each instance after
// the normalization prelude that Comp. and Ours start with (balance,
// rewrite, balance and the SAT sweep), prelude time included. It splits
// Ours' speedup over Baseline into the prelude's factor (Baseline over
// Baseline + prelude) and the factor of the paper's mechanisms (Baseline +
// prelude over Ours).
//
//   ./fig4_runtime [--instances=N] [--seed=S] [--train=EPISODES]
//                  [--solver=kissat|cadical|both] [--budget=CONFLICTS]
//                  [--timeout-charge=SECONDS] [--full]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/pipeline.h"
#include "gen/suite.h"

using namespace csat;

namespace {
constexpr const char* kUsage =
    "usage: fig4_runtime [--instances=N] [--seed=S] [--train=EPISODES]\n"
    "                    [--solver=kissat|cadical|both] [--budget=CONFLICTS]\n"
    "                    [--timeout-charge=SECONDS] [--full]\n";
}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv, bench::experiment_keys({"solver"}),
                           kUsage);
  const bench::Experiment e = bench::parse_experiment(flags);
  const std::string solver_sel = flags.get_string("solver", "both");
  if (solver_sel != "kissat" && solver_sel != "cadical" && solver_sel != "both")
    flags.fail("--solver must be kissat, cadical or both");

  std::printf("=== Fig. 4: runtime comparison (Baseline / Comp. / Ours) ===\n");
  std::printf("(%d test instances, budget %llu conflicts, timeout charge %.0fs)\n\n",
              e.instances, static_cast<unsigned long long>(e.budget),
              e.timeout_charge);

  const rl::DqnAgent agent = bench::train_paper_agent(e.train_episodes);
  const auto suite = gen::make_test_suite(e.instances, e.seed);

  struct Panel {
    const char* name;
    sat::SolverConfig config;
  };
  std::vector<Panel> panels;
  if (solver_sel == "kissat" || solver_sel == "both")
    panels.push_back({"(a) kissat-like", sat::SolverConfig::kissat_like()});
  if (solver_sel == "cadical" || solver_sel == "both")
    panels.push_back({"(c) cadical-like", sat::SolverConfig::cadical_like()});

  for (const auto& panel : panels) {
    std::printf("--- panel %s ---\n", panel.name);
    const auto base = bench::run_arm(e, suite, core::PipelineMode::kBaseline,
                                     panel.config, nullptr);
    const auto base_prelude =
        bench::run_arm(e, suite, core::PipelineMode::kBaseline, panel.config,
                       nullptr, /*prelude=*/true);
    const auto comp = bench::run_arm(e, suite, core::PipelineMode::kComp,
                                     panel.config, nullptr);
    const auto ours = bench::run_arm(e, suite, core::PipelineMode::kOurs,
                                     panel.config, &agent);
    bench::print_cactus("Baseline", base.runtimes, base.solved, e.timeout_charge);
    bench::print_cactus("Base+prelude", base_prelude.runtimes,
                        base_prelude.solved, e.timeout_charge);
    bench::print_cactus("Comp.", comp.runtimes, comp.solved, e.timeout_charge);
    bench::print_cactus("Ours", ours.runtimes, ours.solved, e.timeout_charge);
    std::printf("  time split (preprocess + solve): Baseline %.2f+%.2fs  "
                "Base+prelude %.2f+%.2fs  Comp. %.2f+%.2fs  Ours %.2f+%.2fs\n",
                base.preprocess, base.solve, base_prelude.preprocess,
                base_prelude.solve, comp.preprocess, comp.solve,
                ours.preprocess, ours.solve);
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    std::printf("  Ours vs Baseline speedup %.3fx = prelude %.3fx "
                "(Baseline / Base+prelude) x mechanisms %.3fx "
                "(Base+prelude / Ours)\n",
                ratio(base.total, ours.total),
                ratio(base.total, base_prelude.total),
                ratio(base_prelude.total, ours.total));
    const auto pct = [](double ours_t, double other) {
      return other > 0.0 ? 100.0 * (other - ours_t) / other : 0.0;
    };
    std::printf("  total-runtime reduction vs Baseline: %.2f%%   vs Comp.: %.2f%%\n",
                pct(ours.total, base.total), pct(ours.total, comp.total));
    std::printf("  solve-time reduction     vs Baseline: %.2f%%   vs Comp.: %.2f%%\n",
                pct(ours.solve, base.solve), pct(ours.solve, comp.solve));
    std::printf("  paper reference: CaDiCaL panel 63.03%% vs Baseline, "
                "35.16%% vs Comp. (total runtime; perfbench/README.md splits\n"
                "  it by stage at this reduced instance scale)\n\n");
  }
  return 0;
}
