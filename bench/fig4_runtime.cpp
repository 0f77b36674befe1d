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
//   ./fig4_runtime [--instances=N] [--seed=S] [--train=EPISODES]
//                  [--solver=kissat|cadical|both] [--budget=CONFLICTS]
//                  [--timeout-charge=SECONDS] [--full]
//
// External corpus mode (SAT Competition / HWMCC directory layouts):
//
//   ./fig4_runtime --corpus=DIR [--budget=...] [--timeout-charge=...]
//                  [--solver=...]
//
// recursively ingests every *.cnf / *.dimacs (DIMACS) and *.aag / *.aig
// (AIGER, ASCII or binary) file under DIR. AIGER circuits run through the
// Baseline and Comp. preprocessing arms; DIMACS formulas have no circuit
// structure left, so they are solved directly (reported as their own
// "Direct" arm). Unparseable files are reported and skipped.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "aig/aiger_io.h"
#include "bench_util.h"
#include "cnf/dimacs.h"
#include "common/stopwatch.h"
#include "core/pipeline.h"
#include "gen/suite.h"
#include "rl/embedding.h"
#include "rl/features.h"
#include "rl/trainer.h"

using namespace csat;

namespace {

struct ArmTotals {
  int solved = 0;
  double total = 0.0;
  double preprocess = 0.0;
  double solve = 0.0;
  std::vector<double> runtimes;
};

ArmTotals run_arm(const std::vector<gen::Instance>& suite,
                  core::PipelineMode mode, const sat::SolverConfig& solver,
                  std::uint64_t budget, double timeout_charge,
                  const rl::DqnAgent* agent) {
  ArmTotals t;
  for (const auto& inst : suite) {
    core::PipelineOptions o;
    o.mode = mode;
    o.solver = solver;
    o.limits.max_conflicts = budget;
    o.limits.max_seconds = timeout_charge;  // the paper's wall-clock cap
    o.agent = agent;
    o.seed = 11;
    o.max_steps = 6;  // scaled T (training uses the same horizon)
    const auto r = core::solve_instance(inst.circuit, o);
    t.preprocess += r.preprocess_seconds;
    if (r.status == sat::Status::kUnknown) {
      t.runtimes.push_back(timeout_charge);
      t.total += timeout_charge;
      t.solve += timeout_charge - r.preprocess_seconds;
    } else {
      ++t.solved;
      t.runtimes.push_back(r.total_seconds());
      t.total += r.total_seconds();
      t.solve += r.solve_seconds;
    }
  }
  return t;
}

// --- external corpus ingestion ----------------------------------------------

struct CorpusFiles {
  std::vector<std::string> aiger;
  std::vector<std::string> dimacs;
};

CorpusFiles scan_corpus(const std::string& dir) {
  CorpusFiles files;
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::recursive_directory_iterator it(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot scan corpus %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return files;  // empty -> run_corpus reports and exits nonzero
  }
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".aag" || ext == ".aig") {
      files.aiger.push_back(entry.path().string());
    } else if (ext == ".cnf" || ext == ".dimacs") {
      files.dimacs.push_back(entry.path().string());
    }
  }
  // Directory iteration order is filesystem-dependent; sort for
  // reproducible reports.
  std::sort(files.aiger.begin(), files.aiger.end());
  std::sort(files.dimacs.begin(), files.dimacs.end());
  return files;
}

int run_corpus(const std::string& dir, const sat::SolverConfig& solver,
               const char* solver_name, std::uint64_t budget,
               double timeout_charge) {
  const CorpusFiles files = scan_corpus(dir);
  std::printf("corpus %s: %zu AIGER, %zu DIMACS files (solver %s)\n", dir.c_str(),
              files.aiger.size(), files.dimacs.size(), solver_name);
  if (files.aiger.empty() && files.dimacs.empty()) {
    std::fprintf(stderr, "no *.aag/*.aig/*.cnf/*.dimacs files under %s\n",
                 dir.c_str());
    return 1;
  }
  int skipped = 0;

  // AIGER circuits go through the real preprocessing arms.
  if (!files.aiger.empty()) {
    ArmTotals base, comp;
    std::vector<gen::Instance> suite;
    suite.reserve(files.aiger.size());
    for (const std::string& path : files.aiger) {
      try {
        suite.push_back(
            {path, aig::read_aiger_file(path), gen::Instance::Kind::kLec});
      } catch (const aig::AigerError& e) {
        std::fprintf(stderr, "skip %s: %s\n", path.c_str(), e.what());
        ++skipped;
      }
    }
    base = run_arm(suite, core::PipelineMode::kBaseline, solver, budget,
                   timeout_charge, nullptr);
    comp = run_arm(suite, core::PipelineMode::kComp, solver, budget,
                   timeout_charge, nullptr);
    std::printf("--- AIGER circuits (%zu) ---\n", suite.size());
    bench::print_cactus("Baseline", base.runtimes, base.solved, timeout_charge);
    bench::print_cactus("Comp.", comp.runtimes, comp.solved, timeout_charge);
  }

  // DIMACS formulas have no circuit left to preprocess: solve directly.
  if (!files.dimacs.empty()) {
    ArmTotals direct;
    for (const std::string& path : files.dimacs) {
      try {
        const cnf::Cnf f = cnf::read_dimacs_file(path);
        sat::Limits limits;
        limits.max_conflicts = budget;
        limits.max_seconds = timeout_charge;
        Stopwatch watch;
        const auto r = sat::solve_cnf(f, solver, limits);
        const double secs = watch.seconds();
        if (r.status == sat::Status::kUnknown) {
          direct.runtimes.push_back(timeout_charge);
          direct.total += timeout_charge;
        } else {
          ++direct.solved;
          direct.runtimes.push_back(secs);
          direct.total += secs;
        }
      } catch (const cnf::DimacsError& e) {
        std::fprintf(stderr, "skip %s: %s\n", path.c_str(), e.what());
        ++skipped;
      }
    }
    std::printf("--- DIMACS formulas (%zu) ---\n", direct.runtimes.size());
    bench::print_cactus("Direct", direct.runtimes, direct.solved,
                        timeout_charge);
  }
  if (skipped > 0) std::printf("(%d unparseable files skipped)\n", skipped);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const bool full = flags.has("full");
  const int instances =
      static_cast<int>(flags.get_int("instances", full ? 300 : 24));
  const std::uint64_t seed = flags.get_int("seed", 9);
  const int train_episodes =
      static_cast<int>(flags.get_int("train", full ? 400 : 100));
  const std::uint64_t budget = flags.get_int("budget", full ? 20000000 : 5000000);
  const double timeout_charge =
      static_cast<double>(flags.get_int("timeout-charge", full ? 120 : 10));
  const std::string solver_sel = flags.get_string("solver", "both");

  const std::string corpus = flags.get_string("corpus", "");
  if (!corpus.empty()) {
    const bool cadical = solver_sel == "cadical";
    return run_corpus(corpus,
                      cadical ? sat::SolverConfig::cadical_like()
                              : sat::SolverConfig::kissat_like(),
                      cadical ? "cadical-like" : "kissat-like", budget,
                      timeout_charge);
  }

  std::printf("=== Fig. 4: runtime comparison (Baseline / Comp. / Ours) ===\n");
  std::printf("(%d test instances, budget %llu conflicts, timeout charge %.0fs)\n\n",
              instances, static_cast<unsigned long long>(budget),
              timeout_charge);

  // Train the RL agent on easy instances (paper: 200 instances, 10 000
  // episodes; scaled here — tune with --train).
  rl::DqnConfig dcfg;
  dcfg.state_size = rl::kNumStateFeatures + rl::kEmbeddingDim;
  rl::DqnAgent agent(dcfg);
  if (train_episodes > 0) {
    std::printf("training DQN agent: %d episodes on easy suite... ", train_episodes);
    std::fflush(stdout);
    const auto train_set = gen::make_training_suite(24, 7);
    rl::TrainConfig tcfg;
    tcfg.episodes = train_episodes;
    tcfg.env.max_steps = 6;
    tcfg.env.solve_limits.max_conflicts = 30000;
    const auto rep = rl::train_agent(agent, train_set, tcfg);
    std::printf("done (reward %.4f -> %.4f)\n\n", rep.early_mean_reward,
                rep.late_mean_reward);
  }

  const auto suite = gen::make_test_suite(instances, seed);

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
    const auto base = run_arm(suite, core::PipelineMode::kBaseline,
                              panel.config, budget, timeout_charge, nullptr);
    const auto comp = run_arm(suite, core::PipelineMode::kComp, panel.config,
                              budget, timeout_charge, nullptr);
    const auto ours = run_arm(suite, core::PipelineMode::kOurs, panel.config,
                              budget, timeout_charge, &agent);
    bench::print_cactus("Baseline", base.runtimes, base.solved, timeout_charge);
    bench::print_cactus("Comp.", comp.runtimes, comp.solved, timeout_charge);
    bench::print_cactus("Ours", ours.runtimes, ours.solved, timeout_charge);
    std::printf("  time split (preprocess + solve): Baseline %.2f+%.2fs  "
                "Comp. %.2f+%.2fs  Ours %.2f+%.2fs\n",
                base.preprocess, base.solve, comp.preprocess, comp.solve,
                ours.preprocess, ours.solve);
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
