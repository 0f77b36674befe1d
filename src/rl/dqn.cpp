#include "rl/dqn.h"

#include <algorithm>

#include "common/check.h"

namespace csat::rl {

namespace {

nn::MlpConfig make_mlp_config(const DqnConfig& c, std::uint64_t seed_shift) {
  nn::MlpConfig m;
  m.layers.push_back(c.state_size);
  for (int h : c.hidden) m.layers.push_back(h);
  m.layers.push_back(synth::kNumSynthActions);
  m.learning_rate = c.learning_rate;
  m.seed = c.seed + seed_shift;
  return m;
}

int argmax(const std::vector<double>& v) {
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

}  // namespace

DqnAgent::DqnAgent(DqnConfig config)
    : config_(config),
      online_(make_mlp_config(config, 0)),
      target_(make_mlp_config(config, 0)),  // same seed: identical init
      replay_(config.replay_capacity),
      rng_(config.seed ^ 0xA6E47) {}

double DqnAgent::epsilon() const {
  const double frac = std::min(
      1.0, static_cast<double>(act_steps_) /
               std::max(1, config_.epsilon_decay_steps));
  return config_.epsilon_start +
         frac * (config_.epsilon_end - config_.epsilon_start);
}

synth::SynthOp DqnAgent::act(const std::vector<double>& state) {
  const double eps = epsilon();
  ++act_steps_;
  if (rng_.next_double() < eps) {
    return static_cast<synth::SynthOp>(
        rng_.next_below(synth::kNumSynthActions));
  }
  return act_greedy(state);
}

synth::SynthOp DqnAgent::act_greedy(const std::vector<double>& state) const {
  return static_cast<synth::SynthOp>(argmax(online_.forward(state)));
}

std::vector<double> DqnAgent::q_values(const std::vector<double>& state) const {
  return online_.forward(state);
}

void DqnAgent::remember(Transition t) {
  const std::size_t slot = replay_.push(std::move(t));
  if (slot >= bootstrap_.size()) {
    bootstrap_.resize(slot + 1, 0.0);
    bootstrap_epoch_.resize(slot + 1, 0);
  }
  bootstrap_epoch_[slot] = 0;  // a new transition has no bootstrap value yet
}

double DqnAgent::train_step() {
  if (replay_.size() < static_cast<std::size_t>(config_.batch_size)) return 0.0;
  const auto slots = replay_.sample(config_.batch_size, rng_);

  // The bootstrap values this sync period has not computed yet, in one
  // batched pass of Q̂.
  const std::size_t width = static_cast<std::size_t>(target_.input_size());
  std::vector<std::size_t> fresh;
  std::vector<double> next_states;
  for (std::size_t slot : slots) {
    const Transition& t = replay_[slot];
    if (t.done || bootstrap_epoch_[slot] == target_epoch_) continue;
    CSAT_CHECK(t.next_state.size() == width);
    bootstrap_epoch_[slot] = target_epoch_;  // also dedupes repeats in this batch
    fresh.push_back(slot);
    next_states.insert(next_states.end(), t.next_state.begin(), t.next_state.end());
  }
  const std::vector<double> q_next = target_.forward_batch(next_states, fresh.size());
  const auto q_width = static_cast<std::ptrdiff_t>(target_.output_size());
  auto q = q_next.begin();
  for (std::size_t slot : fresh) {
    bootstrap_[slot] = *std::max_element(q, q + q_width);
    q += q_width;
  }

  std::vector<std::vector<double>> inputs;
  std::vector<int> actions;
  std::vector<double> targets;
  inputs.reserve(slots.size());
  actions.reserve(slots.size());
  targets.reserve(slots.size());
  for (std::size_t slot : slots) {
    const Transition& t = replay_[slot];
    double y = t.reward;
    if (!t.done) y += config_.gamma * bootstrap_[slot];
    inputs.push_back(t.state);
    actions.push_back(t.action);
    targets.push_back(y);
  }
  const double loss = online_.train_batch(inputs, actions, targets);

  if (++train_steps_ % config_.target_sync_every == 0) {
    target_.copy_weights_from(online_);
    ++target_epoch_;
  }
  return loss;
}

void DqnAgent::load(std::istream& in) {
  online_.load(in);
  target_.copy_weights_from(online_);
  ++target_epoch_;
}

}  // namespace csat::rl
