#ifndef CSAT_RL_DQN_H
#define CSAT_RL_DQN_H

/// \file dqn.h
/// Deep Q-learning agent (paper Section III-B6, Eq. 4-5).
///
/// Online network Q_theta and target network Q̂ (weights copied every
/// `target_sync_every` training steps). Training minimizes
///   || Q(s,a) - (r + gamma * max_a' Q̂(s',a')) ||^2
/// with terminal states bootstrapping to r alone. Q̂ changes only when it
/// is synced, so each replay slot's bootstrap value max_a' Q̂(s', a') is
/// computed once per sync period and reused by every later sample of that
/// slot; a training step computes the values it lacks in one
/// Mlp::forward_batch of Q̂ and takes one Mlp::train_batch step of Q. Both
/// are bit-identical to evaluating the samples one at a time (mlp.h), so
/// training is too. Action selection is epsilon-greedy with linear decay.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/rng.h"
#include "nn/mlp.h"
#include "rl/replay.h"
#include "synth/recipe.h"

namespace csat::rl {

struct DqnConfig {
  int state_size = 38;  ///< kNumStateFeatures + kEmbeddingDim
  std::vector<int> hidden{128, 128};
  double gamma = 0.98;          ///< paper's discount factor
  double learning_rate = 1e-3;  ///< paper uses 1e-5 with 10k episodes
  int batch_size = 32;          ///< paper's batch size
  std::size_t replay_capacity = 10000;
  int target_sync_every = 100;  ///< training steps between Q̂ <- Q copies
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  int epsilon_decay_steps = 2000;
  std::uint64_t seed = 7;
};

class DqnAgent {
 public:
  explicit DqnAgent(DqnConfig config);

  /// Epsilon-greedy action for training.
  synth::SynthOp act(const std::vector<double>& state);
  /// Greedy action (evaluation / deployment policy, Eq. 4).
  [[nodiscard]] synth::SynthOp act_greedy(const std::vector<double>& state) const;
  /// Q-values for inspection.
  [[nodiscard]] std::vector<double> q_values(const std::vector<double>& state) const;

  void remember(Transition t);

  /// One minibatch update; returns the TD loss (0 when the buffer is still
  /// smaller than the batch).
  double train_step();

  [[nodiscard]] double epsilon() const;
  [[nodiscard]] const DqnConfig& config() const { return config_; }
  [[nodiscard]] std::size_t replay_size() const { return replay_.size(); }

  void save(std::ostream& out) const { online_.save(out); }
  void load(std::istream& in);

 private:
  DqnConfig config_;
  nn::Mlp online_;
  nn::Mlp target_;
  ReplayBuffer replay_;
  /// max_a' Q̂(s', a') per replay slot, valid while its stamp equals
  /// target_epoch_; the epoch advances whenever Q̂'s weights change.
  std::vector<double> bootstrap_;
  std::vector<std::uint64_t> bootstrap_epoch_;
  std::uint64_t target_epoch_ = 1;
  Rng rng_;
  std::uint64_t act_steps_ = 0;
  std::uint64_t train_steps_ = 0;
};

}  // namespace csat::rl

#endif  // CSAT_RL_DQN_H
