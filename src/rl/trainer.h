#ifndef CSAT_RL_TRAINER_H
#define CSAT_RL_TRAINER_H

/// \file trainer.h
/// DQN training loop over a dataset of CSAT instances (paper Section IV-A:
/// each episode samples a random training instance; the agent transforms it
/// for at most T steps; the terminal reward is the branching reduction).
///
/// One call trains with one SynthEnv, so its solve memo (env.h) spans
/// exactly that run. Episodes draw instances with replacement, so the memo
/// serves most resets once episodes outnumber instances, and a larger
/// share of terminals as the policy settles on recipes; the counts land in
/// TrainReport::solves.

#include <cstdint>
#include <functional>
#include <vector>

#include "gen/suite.h"
#include "rl/dqn.h"
#include "rl/env.h"

namespace csat::rl {

struct TrainConfig {
  /// Paper: 10 000. The default is a short run; longer runs revisit more
  /// instances and recipes, which the env's memo serves without solving.
  int episodes = 200;
  EnvConfig env;
  std::uint64_t seed = 3;
  /// Optional per-episode progress hook (episode index, log entry).
  std::function<void(int, double)> on_episode;
};

struct EpisodeLog {
  double reward = 0.0;
  std::uint64_t baseline_decisions = 0;
  std::uint64_t final_decisions = 0;
  int steps = 0;
  double mean_loss = 0.0;
};

struct TrainReport {
  std::vector<EpisodeLog> episodes;
  /// Mean terminal reward over the first / last quartile of episodes —
  /// the learning-progress summary the tests assert on.
  double early_mean_reward = 0.0;
  double late_mean_reward = 0.0;
  /// Solves the run's environment ran versus served from its memo.
  SolveCounts solves;
};

TrainReport train_agent(DqnAgent& agent,
                        const std::vector<gen::Instance>& dataset,
                        const TrainConfig& config);

}  // namespace csat::rl

#endif  // CSAT_RL_TRAINER_H
