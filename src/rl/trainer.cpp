#include "rl/trainer.h"

#include "common/check.h"

namespace csat::rl {

TrainReport train_agent(DqnAgent& agent,
                        const std::vector<gen::Instance>& dataset,
                        const TrainConfig& config) {
  CSAT_CHECK(!dataset.empty());
  Rng rng(config.seed);
  SynthEnv env(config.env);
  TrainReport report;
  report.episodes.reserve(config.episodes);

  for (int ep = 0; ep < config.episodes; ++ep) {
    const auto& inst = dataset[rng.next_below(dataset.size())];
    std::vector<double> state = env.reset(inst.circuit);
    EpisodeLog log;
    double loss_sum = 0.0;
    int loss_count = 0;

    for (;;) {
      const synth::SynthOp action = agent.act(state);
      const StepResult sr = env.step(action);
      Transition t;
      t.state = state;
      t.action = static_cast<int>(action);
      t.reward = sr.reward;
      t.next_state = sr.state;
      t.done = sr.done;
      agent.remember(std::move(t));
      loss_sum += agent.train_step();
      ++loss_count;
      state = sr.state;
      if (sr.done) {
        log.reward = sr.reward;
        break;
      }
    }
    log.baseline_decisions = env.baseline_decisions();
    log.final_decisions = env.final_decisions();
    log.steps = env.step_count();
    log.mean_loss = loss_count > 0 ? loss_sum / loss_count : 0.0;
    if (config.on_episode) config.on_episode(ep, log.reward);
    report.episodes.push_back(log);
  }

  const std::size_t quartile = std::max<std::size_t>(1, report.episodes.size() / 4);
  double early = 0.0, late = 0.0;
  for (std::size_t i = 0; i < quartile; ++i) {
    early += report.episodes[i].reward;
    late += report.episodes[report.episodes.size() - 1 - i].reward;
  }
  report.early_mean_reward = early / static_cast<double>(quartile);
  report.late_mean_reward = late / static_cast<double>(quartile);
  report.solves = env.solve_counts();
  return report;
}

}  // namespace csat::rl
