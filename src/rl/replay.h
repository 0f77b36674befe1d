#ifndef CSAT_RL_REPLAY_H
#define CSAT_RL_REPLAY_H

/// \file replay.h
/// Experience replay buffer for DQN (fixed-capacity ring, uniform
/// sampling). Transitions store the post-action state so the target
/// bootstrap max_a Q̂(s', a) of Eq. (5) can be computed at training time.

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace csat::rl {

struct Transition {
  std::vector<double> state;
  int action = 0;
  double reward = 0.0;
  std::vector<double> next_state;
  bool done = false;
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity = 10000) : capacity_(capacity) {
    CSAT_CHECK(capacity > 0);
  }

  /// Stores \p t, overwriting the oldest transition once full; returns the
  /// slot it occupies.
  std::size_t push(Transition t) {
    if (data_.size() < capacity_) {
      data_.push_back(std::move(t));
      return data_.size() - 1;
    }
    const std::size_t slot = head_;
    data_[slot] = std::move(t);
    head_ = (head_ + 1) % capacity_;
    return slot;
  }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] const Transition& operator[](std::size_t slot) const {
    return data_[slot];
  }

  /// Uniform sample with replacement: n slot indices.
  [[nodiscard]] std::vector<std::size_t> sample(std::size_t n, Rng& rng) const {
    CSAT_CHECK(!data_.empty());
    std::vector<std::size_t> slots;
    slots.reserve(n);
    for (std::size_t i = 0; i < n; ++i) slots.push_back(rng.next_below(data_.size()));
    return slots;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::vector<Transition> data_;
};

}  // namespace csat::rl

#endif  // CSAT_RL_REPLAY_H
