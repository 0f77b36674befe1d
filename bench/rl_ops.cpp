// Google-benchmark microbenchmarks for DQN agent training, layer by layer:
// the Q-network's forward pass and minibatch step, one agent training step,
// and whole training runs. BM_TrainAgent/repeat is the training run the
// repository benchmark's paper_suite setup and bench/fig4_runtime perform
// (100 episodes drawn with replacement from 24 instances), where the
// environment's solve memo serves the repeats. BM_TrainAgent/distinct runs
// the same 100 episodes on instances that never repeat within an
// environment, the workload without the memo's property. The memo counters
// report how many baseline and final solves each run computed (runs) and
// served from the memo (hits).
// BENCH_rl.json holds an interleaved parent/change A/B of this binary
// (tools/bench_ab.py).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "gen/suite.h"
#include "nn/mlp.h"
#include "rl/dqn.h"
#include "rl/embedding.h"
#include "rl/features.h"
#include "rl/trainer.h"

using namespace csat;

namespace {

constexpr int kStateSize = rl::kNumStateFeatures + rl::kEmbeddingDim;

/// The agent's Q-network shape (DqnConfig defaults).
nn::MlpConfig q_network() {
  nn::MlpConfig c;
  c.layers = {kStateSize, 128, 128, synth::kNumSynthActions};
  return c;
}

std::vector<double> random_state(Rng& rng) {
  std::vector<double> s(kStateSize);
  for (double& v : s) v = rng.next_double() * 2.0 - 1.0;
  return s;
}

void BM_MlpForward(benchmark::State& state) {
  const nn::Mlp net(q_network());
  Rng rng(1);
  const std::vector<double> s = random_state(rng);
  for (auto _ : state) {
    std::vector<double> q = net.forward(s);
    benchmark::DoNotOptimize(q.data());
  }
}

void BM_MlpTrainBatch(benchmark::State& state) {
  nn::Mlp net(q_network());
  Rng rng(2);
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> inputs;
  std::vector<int> actions;
  std::vector<double> targets;
  for (std::size_t i = 0; i < batch; ++i) {
    inputs.push_back(random_state(rng));
    actions.push_back(static_cast<int>(rng.next_below(synth::kNumSynthActions)));
    targets.push_back(rng.next_double());
  }
  for (auto _ : state) benchmark::DoNotOptimize(net.train_batch(inputs, actions, targets));
}

void BM_DqnTrainStep(benchmark::State& state) {
  rl::DqnConfig config;
  config.state_size = kStateSize;
  rl::DqnAgent agent(config);
  Rng rng(3);
  // A replay buffer shaped like training's: about one terminal per five
  // transitions.
  for (int i = 0; i < 1000; ++i) {
    rl::Transition t;
    t.state = random_state(rng);
    t.action = static_cast<int>(rng.next_below(synth::kNumSynthActions));
    t.done = rng.next_below(5) == 0;
    t.reward = t.done ? rng.next_double() - 0.5 : 0.0;
    t.next_state = random_state(rng);
    agent.remember(std::move(t));
  }
  for (auto _ : state) benchmark::DoNotOptimize(agent.train_step());
}

rl::TrainConfig train_config() {
  rl::TrainConfig tcfg;
  tcfg.episodes = 100;
  tcfg.env.max_steps = 6;
  tcfg.env.solve_limits.max_conflicts = 30000;
  return tcfg;
}

void report_solves(benchmark::State& state, const rl::SolveCounts& c) {
  state.counters["baseline_runs"] = static_cast<double>(c.baseline_runs);
  state.counters["baseline_hits"] = static_cast<double>(c.baseline_hits);
  state.counters["final_runs"] = static_cast<double>(c.final_runs);
  state.counters["final_hits"] = static_cast<double>(c.final_hits);
}

void BM_TrainAgent_repeat(benchmark::State& state) {
  const auto dataset = gen::make_training_suite(24, 7);
  rl::SolveCounts solves;
  for (auto _ : state) {
    rl::DqnConfig config;
    config.state_size = kStateSize;
    rl::DqnAgent agent(config);
    solves = rl::train_agent(agent, dataset, train_config()).solves;
  }
  report_solves(state, solves);
}

void BM_TrainAgent_distinct(benchmark::State& state) {
  // One single-instance run per episode: each gets a fresh environment, so
  // nothing is ever served from a memo, while the agent trains throughout.
  const rl::TrainConfig base = train_config();
  const auto dataset = gen::make_training_suite(base.episodes, 11);
  rl::SolveCounts solves;
  for (auto _ : state) {
    rl::DqnConfig config;
    config.state_size = kStateSize;
    rl::DqnAgent agent(config);
    rl::TrainConfig one = base;
    one.episodes = 1;
    solves = {};
    for (const gen::Instance& inst : dataset) {
      const rl::SolveCounts c = rl::train_agent(agent, {inst}, one).solves;
      solves.baseline_runs += c.baseline_runs;
      solves.baseline_hits += c.baseline_hits;
      solves.final_runs += c.final_runs;
      solves.final_hits += c.final_hits;
    }
  }
  report_solves(state, solves);
}

}  // namespace

BENCHMARK(BM_MlpForward)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MlpTrainBatch)->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_DqnTrainStep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TrainAgent_repeat)->Name("BM_TrainAgent/repeat")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TrainAgent_distinct)->Name("BM_TrainAgent/distinct")->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
