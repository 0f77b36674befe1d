#ifndef CSAT_SYNTH_RECIPE_H
#define CSAT_SYNTH_RECIPE_H

/// \file recipe.h
/// Synthesis operations as a discrete action vocabulary.
///
/// The first five ops are the RL agent's action space (paper Section
/// III-B3): rewrite, refactor, balance, resub, plus the `end` sentinel that
/// terminates an episode. Recipes (sequences of ops) also express the fixed
/// pipelines the experiments need: the normalization prelude applied to
/// every incoming instance, the compress2-like script, and the
/// Eén–Mishchenko–Sörensson style fixed script used by the Comp. baseline
/// of Fig. 4. The sweep (SAT sweeping, synth/sweep.h) is recipe vocabulary
/// only: it closes the normalization prelude and is not an agent action.

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aig/aig.h"

namespace csat::synth {

enum class SynthOp : std::uint8_t {
  kRewrite = 0,
  kRefactor = 1,
  kBalance = 2,
  kResub = 3,
  kEnd = 4,
  kSweep = 5,  ///< recipe-only: not among the agent's actions
};

/// Number of actions the RL agent chooses among (kRewrite..kEnd; kSweep is
/// not one of them).
inline constexpr int kNumSynthActions = 5;

[[nodiscard]] std::string_view to_string(SynthOp op);
[[nodiscard]] std::optional<SynthOp> op_from_string(std::string_view name);

/// Applies one operation (kEnd is the identity).
aig::Aig apply_op(const aig::Aig& g, SynthOp op);

/// Applies a sequence of operations, stopping early at kEnd.
aig::Aig apply_recipe(const aig::Aig& g, std::span<const SynthOp> recipe);

/// Parses "rw;rf;b;rs" / "rewrite,refactor" style strings.
std::vector<SynthOp> parse_recipe(std::string_view text);

/// Predetermined prelude "to unify the distribution of input circuits"
/// (paper Section III-A): strash + balance + rewrite + balance, then a SAT
/// sweep that merges functionally equivalent nodes before encoding.
const std::vector<SynthOp>& normalization_recipe();

/// compress2-like size script: b, rw, rf, b, rw, rs, b.
const std::vector<SynthOp>& compress2_recipe();

}  // namespace csat::synth

#endif  // CSAT_SYNTH_RECIPE_H
