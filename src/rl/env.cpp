#include "rl/env.h"

#include "cnf/tseitin.h"
#include "common/check.h"
#include "lut/lut_to_cnf.h"
#include "rl/embedding.h"
#include "rl/features.h"

namespace csat::rl {

SynthEnv::SynthEnv(EnvConfig config) : config_(std::move(config)) {}

int SynthEnv::state_size() const { return kNumStateFeatures + kEmbeddingDim; }

std::vector<double> SynthEnv::make_state() const {
  std::vector<double> s = extract_features(current_, initial_);
  s.insert(s.end(), embedding_.begin(), embedding_.end());
  return s;
}

std::uint64_t SynthEnv::tseitin_decisions(const aig::Aig& g) const {
  // The conventional pipeline: direct Tseitin.
  const auto enc = cnf::tseitin_encode(g);
  if (enc.trivially_sat || enc.trivially_unsat) return 0;
  const auto r = sat::solve_cnf(enc.cnf, config_.solver, config_.solve_limits);
  return r.stats.decisions;
}

std::uint64_t SynthEnv::pipeline_decisions(const aig::Aig& g) const {
  const auto mapped = lut::map_to_luts(g, config_.mapper);
  const auto enc = lut::lut_to_cnf(mapped.netlist);
  if (enc.trivially_sat || enc.trivially_unsat) return 0;
  const auto r = sat::solve_cnf(enc.cnf, config_.solver, config_.solve_limits);
  return r.stats.decisions;
}

std::vector<double> SynthEnv::reset(const aig::Aig& instance) {
  initial_ = aig::cleanup_copy(instance);
  current_ = aig::cleanup_copy(initial_);
  embedding_ = functional_embedding(initial_);
  step_ = 0;
  done_ = false;
  final_decisions_ = 0;
  recipe_.clear();

  // Everything below depends only on initial_, so it is the memo key.
  const std::uint64_t key = aig::identity_hash(initial_);
  entry_ = nullptr;
  for (auto [it, end] = memo_.equal_range(key); it != end; ++it) {
    if (aig::identical(it->second.instance, initial_)) {
      entry_ = &it->second;
      break;
    }
  }
  if (entry_ != nullptr) {
    ++counts_.baseline_hits;
  } else {
    ++counts_.baseline_runs;
    MemoEntry fresh;
    fresh.instance = initial_;
    fresh.baseline_decisions = tseitin_decisions(initial_);
    entry_ = &memo_.emplace(key, std::move(fresh))->second;
  }
  baseline_decisions_ = entry_->baseline_decisions;
  return make_state();
}

StepResult SynthEnv::step(synth::SynthOp action) {
  CSAT_CHECK_MSG(!done_, "SynthEnv::step called on a finished episode");
  StepResult result;

  if (action != synth::SynthOp::kEnd) {
    current_ = synth::apply_op(current_, action);
    recipe_.push_back(static_cast<char>('0' + static_cast<int>(action)));
    ++step_;
  }

  const bool terminal =
      action == synth::SynthOp::kEnd || step_ >= config_.max_steps;
  result.state = make_state();
  result.done = terminal;
  if (terminal) {
    done_ = true;
    // current_ is a function of the instance and the recipe alone.
    auto& finals = entry_->final_decisions;
    if (const auto it = finals.find(recipe_); it != finals.end()) {
      ++counts_.final_hits;
      final_decisions_ = it->second;
    } else {
      ++counts_.final_runs;
      final_decisions_ = pipeline_decisions(current_);
      finals.emplace(recipe_, final_decisions_);
    }
    // Eq. (3): r = -(#branching_final - #branching_initial), normalized.
    const double base = static_cast<double>(baseline_decisions_);
    const double fin = static_cast<double>(final_decisions_);
    result.reward = base > 0.0 ? (base - fin) / base : 0.0;
  }
  return result;
}

}  // namespace csat::rl
