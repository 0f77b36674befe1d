#ifndef CSAT_RL_ENV_H
#define CSAT_RL_ENV_H

/// \file env.h
/// The logic-synthesis MDP (paper Section III-B).
///
/// State:      s_t = concat(E(G_t), D(G_0))           (Eq. 2)
/// Actions:    {rewrite, refactor, balance, resub, end}
/// Transition: G_{t+1} = F(G_t, a_t) via the synthesis engine
/// Reward:     terminal only (Eq. 3): the *reduction in solver decisions*
///             between the baseline CNF of G_0 and the full-pipeline CNF
///             (cost-customized LUT mapping + lut2cnf) of the final G_T,
///             normalized by the baseline count for numeric stability
///             (documented deviation; the paper uses the raw difference).
///
/// The solver runs under a conflict budget so that even a pathological
/// intermediate circuit cannot stall training; the paper makes the same
/// argument for preferring branching counts over wall-clock rewards.
///
/// Both decision counts are deterministic functions of the instance and,
/// for the terminal count, of the recipe applied to it, and training
/// revisits both: episodes sample instances with replacement and a
/// converging policy repeats recipes. Each SynthEnv therefore keeps a memo
/// with one entry per distinct instance it was reset on, holding the
/// baseline count and the final count of every recipe already finished on
/// it (keyed by the recipe's non-`end` actions). A repeat skips encoding,
/// mapping and solving; synthesis steps still run, so current() and the
/// states are computed exactly as without the memo. Instances match node
/// for node (aig::identical on the cleaned copy reset() works from), never
/// by aig::structural_hash: two circuits equal up to node order share a
/// structural hash but not their synthesis results or solver decisions.
/// The memo lives and dies with its env (one
/// copy of each distinct instance plus one integer per distinct recipe,
/// bounded by the dataset and the episode count), so nothing is shared
/// between training runs.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/aig.h"
#include "lut/mapper.h"
#include "sat/solver.h"
#include "synth/recipe.h"

namespace csat::rl {

struct EnvConfig {
  int max_steps = 10;  ///< T in the paper
  sat::SolverConfig solver = sat::SolverConfig::kissat_like();
  sat::Limits solve_limits;  ///< default: 100k conflicts (set in ctor use)
  lut::MapperParams mapper;  ///< pipeline mapper (branching cost by default)
  EnvConfig() {
    solve_limits.max_conflicts = 100000;
    mapper.cost = lut::CostKind::kBranching;
  }
};

/// Decision counts the env computed versus served from its memo.
struct SolveCounts {
  std::uint64_t baseline_runs = 0;  ///< resets that encoded and solved
  std::uint64_t baseline_hits = 0;  ///< resets served from the memo
  std::uint64_t final_runs = 0;     ///< terminals that mapped and solved
  std::uint64_t final_hits = 0;     ///< terminals served from the memo
};

struct StepResult {
  std::vector<double> state;
  double reward = 0.0;
  bool done = false;
};

class SynthEnv {
 public:
  explicit SynthEnv(EnvConfig config = {});
  // entry_ points into memo_, so a copy would share the original's entry.
  SynthEnv(const SynthEnv&) = delete;
  SynthEnv& operator=(const SynthEnv&) = delete;

  /// Starts an episode on a CSAT instance; returns s_0.
  std::vector<double> reset(const aig::Aig& instance);

  /// Applies one action. After `done`, call reset() again.
  StepResult step(synth::SynthOp action);

  [[nodiscard]] int step_count() const { return step_; }
  [[nodiscard]] const aig::Aig& current() const { return current_; }
  [[nodiscard]] std::uint64_t baseline_decisions() const {
    return baseline_decisions_;
  }
  /// Decisions of the full pipeline on the final circuit (valid once done).
  [[nodiscard]] std::uint64_t final_decisions() const { return final_decisions_; }

  [[nodiscard]] int state_size() const;

  [[nodiscard]] const SolveCounts& solve_counts() const { return counts_; }

 private:
  /// Everything the env has solved for one distinct instance.
  struct MemoEntry {
    aig::Aig instance;  ///< confirms a hash match node for node
    std::uint64_t baseline_decisions = 0;
    /// Final decisions per finished recipe, keyed by its non-end actions.
    std::unordered_map<std::string, std::uint64_t> final_decisions;
  };

  [[nodiscard]] std::vector<double> make_state() const;
  [[nodiscard]] std::uint64_t tseitin_decisions(const aig::Aig& g) const;
  [[nodiscard]] std::uint64_t pipeline_decisions(const aig::Aig& g) const;

  EnvConfig config_;
  /// Keyed by aig::identity_hash; node-based, so entry_ stays valid.
  std::unordered_multimap<std::uint64_t, MemoEntry> memo_;
  MemoEntry* entry_ = nullptr;  ///< the current episode's instance
  std::string recipe_;          ///< the current episode's non-end actions
  SolveCounts counts_;
  aig::Aig initial_;
  aig::Aig current_;
  std::vector<double> embedding_;
  std::uint64_t baseline_decisions_ = 0;
  std::uint64_t final_decisions_ = 0;
  int step_ = 0;
  bool done_ = true;
};

}  // namespace csat::rl

#endif  // CSAT_RL_ENV_H
