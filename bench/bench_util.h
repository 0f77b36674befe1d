#ifndef CSAT_BENCH_BENCH_UTIL_H
#define CSAT_BENCH_BENCH_UTIL_H

/// \file bench_util.h
/// Shared helpers for the experiment harness binaries: light-weight flag
/// parsing, summary statistics, the paper experiment the Fig. 4/5 benches
/// share (flags, trained agent, per-arm loop), and the "cactus" (instances
/// solved vs cumulative runtime) rendering of both figures.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/pipeline.h"
#include "gen/suite.h"
#include "rl/dqn.h"
#include "rl/embedding.h"
#include "rl/features.h"
#include "rl/trainer.h"
#include "synth/recipe.h"

namespace csat::bench {

/// Minimal `--key=value` flag reader over a fixed set of keys. `--help`
/// prints the usage text and exits 0; an unknown key or a bare argument
/// prints it to stderr and exits 2, before the binary does any work.
class Flags {
 public:
  Flags(int argc, char** argv, const std::vector<std::string>& known,
        std::string usage)
      : usage_(std::move(usage)) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--help") {
        std::printf("%s", usage_.c_str());
        std::exit(0);
      }
      const std::string key =
          a.rfind("--", 0) == 0 ? a.substr(2, a.find('=') - 2) : std::string();
      if (std::find(known.begin(), known.end(), key) == known.end())
        fail("unknown argument: " + a);
      args_.push_back(a);
    }
  }

  /// Prints \p message and the usage text to stderr and exits 2.
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s\n%s", message.c_str(), usage_.c_str());
    std::exit(2);
  }

  [[nodiscard]] long get_int(const std::string& key, long fallback) const {
    const auto v = find(key);
    return v.empty() ? fallback : std::atol(v.c_str());
  }

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const {
    const auto v = find(key);
    return v.empty() ? fallback : v;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    const std::string flag = "--" + key;
    for (const auto& a : args_)
      if (a == flag || a.rfind(flag + "=", 0) == 0) return true;
    return false;
  }

 private:
  [[nodiscard]] std::string find(const std::string& key) const {
    const std::string prefix = "--" + key + "=";
    for (const auto& a : args_)
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    return {};
  }

  std::string usage_;
  std::vector<std::string> args_;
};

struct Summary {
  double avg = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Summary summarize(const std::vector<double>& xs) {
  Summary s;
  if (xs.empty()) return s;
  s.min = *std::min_element(xs.begin(), xs.end());
  s.max = *std::max_element(xs.begin(), xs.end());
  for (double x : xs) s.avg += x;
  s.avg /= static_cast<double>(xs.size());
  for (double x : xs) s.stddev += (x - s.avg) * (x - s.avg);
  s.stddev = std::sqrt(s.stddev / static_cast<double>(xs.size()));
  return s;
}

/// The scaled paper experiment of the figure benches.
struct Experiment {
  int instances = 0;
  std::uint64_t seed = 0;
  int train_episodes = 0;
  std::uint64_t budget = 0;     ///< conflicts per instance
  double timeout_charge = 0.0;  ///< the paper's wall-clock cap, seconds
};

/// The keys parse_experiment reads, followed by \p extra.
inline std::vector<std::string> experiment_keys(
    std::initializer_list<std::string> extra = {}) {
  std::vector<std::string> keys = {"instances", "seed",           "train",
                                   "budget",    "timeout-charge", "full"};
  keys.insert(keys.end(), extra);
  return keys;
}

/// Reads --instances, --seed, --train, --budget and --timeout-charge;
/// --full raises their defaults toward the paper's scale.
inline Experiment parse_experiment(const Flags& flags) {
  const bool full = flags.has("full");
  return Experiment{
      .instances = static_cast<int>(flags.get_int("instances", full ? 300 : 24)),
      .seed = static_cast<std::uint64_t>(flags.get_int("seed", 9)),
      .train_episodes =
          static_cast<int>(flags.get_int("train", full ? 400 : 100)),
      .budget = static_cast<std::uint64_t>(
          flags.get_int("budget", full ? 20000000 : 5000000)),
      .timeout_charge =
          static_cast<double>(flags.get_int("timeout-charge", full ? 120 : 10)),
  };
}

/// The DQN agent trained on the easy suite (paper: 200 instances, 10 000
/// episodes; scaled here — tune with --train), with T = 6 steps as at test
/// time. Prints the early and late mean reward.
inline rl::DqnAgent train_paper_agent(int episodes) {
  rl::DqnConfig dcfg;
  dcfg.state_size = rl::kNumStateFeatures + rl::kEmbeddingDim;
  rl::DqnAgent agent(dcfg);
  if (episodes <= 0) return agent;
  std::printf("training DQN agent: %d episodes on easy suite... ", episodes);
  std::fflush(stdout);
  const auto train_set = gen::make_training_suite(24, 7);
  rl::TrainConfig tcfg;
  tcfg.episodes = episodes;
  tcfg.env.max_steps = 6;
  tcfg.env.solve_limits.max_conflicts = 30000;
  const auto rep = rl::train_agent(agent, train_set, tcfg);
  std::printf("done (reward %.4f -> %.4f)\n\n", rep.early_mean_reward,
              rep.late_mean_reward);
  return agent;
}

struct ArmTotals {
  int solved = 0;
  double total = 0.0;
  double preprocess = 0.0;
  double solve = 0.0;
  std::vector<double> runtimes;
};

/// Solves every instance of \p suite through one pipeline arm. A timed-out
/// instance is charged the full timeout (the paper charges 1000 s). With
/// \p prelude, each instance first goes through the normalization prelude
/// (synth::normalization_recipe(), SAT sweep included), whose time is
/// charged as preprocessing: Baseline run that way is the "Baseline +
/// prelude" row, which splits Ours' gain over Baseline into the prelude's
/// share and the share of the paper's mechanisms.
inline ArmTotals run_arm(const Experiment& e,
                         const std::vector<gen::Instance>& suite,
                         core::PipelineMode mode,
                         const sat::SolverConfig& solver,
                         const rl::DqnAgent* agent, bool prelude = false) {
  ArmTotals t;
  for (const auto& inst : suite) {
    Stopwatch watch;
    aig::Aig normalized;
    if (prelude)
      normalized = synth::apply_recipe(inst.circuit, synth::normalization_recipe());
    const double prelude_seconds = prelude ? watch.seconds() : 0.0;
    const aig::Aig& circuit = prelude ? normalized : inst.circuit;
    core::PipelineOptions o;
    o.mode = mode;
    o.solver = solver;
    o.limits.max_conflicts = e.budget;
    o.limits.max_seconds = e.timeout_charge;
    o.agent = agent;
    o.seed = 23;      // seeds the random policy of kOursRandom
    o.max_steps = 6;  // scaled T (training uses the same horizon)
    const auto r = core::solve_instance(circuit, o);
    const double preprocess = prelude_seconds + r.preprocess_seconds;
    t.preprocess += preprocess;
    if (r.status == sat::Status::kUnknown) {
      t.runtimes.push_back(e.timeout_charge);
      t.total += e.timeout_charge;
      t.solve += e.timeout_charge - preprocess;
    } else {
      ++t.solved;
      t.runtimes.push_back(preprocess + r.solve_seconds);
      t.total += preprocess + r.solve_seconds;
      t.solve += r.solve_seconds;
    }
  }
  return t;
}

/// Prints the paper's cactus view: after sorting per-instance runtimes,
/// shows cumulative time checkpoints, ending with the total (the number the
/// paper annotates on each curve).
inline void print_cactus(const char* label, std::vector<double> runtimes,
                         int solved, double timeout_charge) {
  std::sort(runtimes.begin(), runtimes.end());
  double cumulative = 0.0;
  std::printf("  %-12s solved %3d/%3zu | cumulative runtime: ", label, solved,
              runtimes.size());
  const std::size_t steps = 5;
  for (std::size_t i = 1; i <= steps; ++i) {
    const std::size_t upto = runtimes.size() * i / steps;
    double c = 0.0;
    for (std::size_t j = 0; j < upto; ++j) c += runtimes[j];
    std::printf("%s%.1fs@%zu", i == 1 ? "" : "  ", c, upto);
  }
  for (double r : runtimes) cumulative += r;
  std::printf("  | TOTAL %.2fs (timeouts charged %.0fs)\n", cumulative,
              timeout_charge);
}

}  // namespace csat::bench

#endif  // CSAT_BENCH_BENCH_UTIL_H
