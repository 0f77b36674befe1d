#include "synth/recipe.h"

#include "common/check.h"
#include "synth/balance.h"
#include "synth/refactor.h"
#include "synth/resub.h"
#include "synth/rewrite.h"
#include "synth/sweep.h"

namespace csat::synth {

std::string_view to_string(SynthOp op) {
  switch (op) {
    case SynthOp::kRewrite:
      return "rewrite";
    case SynthOp::kRefactor:
      return "refactor";
    case SynthOp::kBalance:
      return "balance";
    case SynthOp::kResub:
      return "resub";
    case SynthOp::kEnd:
      return "end";
    case SynthOp::kSweep:
      return "sweep";
  }
  return "?";
}

std::optional<SynthOp> op_from_string(std::string_view name) {
  if (name == "rewrite" || name == "rw") return SynthOp::kRewrite;
  if (name == "refactor" || name == "rf") return SynthOp::kRefactor;
  if (name == "balance" || name == "b") return SynthOp::kBalance;
  if (name == "resub" || name == "rs") return SynthOp::kResub;
  if (name == "end") return SynthOp::kEnd;
  if (name == "sweep") return SynthOp::kSweep;
  return std::nullopt;
}

aig::Aig apply_op(const aig::Aig& g, SynthOp op) {
  switch (op) {
    case SynthOp::kRewrite:
      return rewrite(g);
    case SynthOp::kRefactor:
      return refactor(g);
    case SynthOp::kBalance:
      return balance(g);
    case SynthOp::kResub:
      return resub(g);
    case SynthOp::kEnd:
      return cleanup_copy(g);
    case SynthOp::kSweep:
      return sweep(g);
  }
  CSAT_CHECK_MSG(false, "unknown synthesis op");
  return cleanup_copy(g);
}

aig::Aig apply_recipe(const aig::Aig& g, std::span<const SynthOp> recipe) {
  aig::Aig current = cleanup_copy(g);
  for (SynthOp op : recipe) {
    if (op == SynthOp::kEnd) break;
    current = apply_op(current, op);
  }
  return current;
}

std::vector<SynthOp> parse_recipe(std::string_view text) {
  std::vector<SynthOp> ops;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find_first_of(";, ", start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view token = text.substr(start, end - start);
    if (!token.empty()) {
      const auto op = op_from_string(token);
      CSAT_CHECK_MSG(op.has_value(), "unknown op in recipe string");
      ops.push_back(*op);
    }
    start = end + 1;
  }
  return ops;
}

const std::vector<SynthOp>& normalization_recipe() {
  static const std::vector<SynthOp> recipe{
      SynthOp::kBalance, SynthOp::kRewrite, SynthOp::kBalance,
      SynthOp::kSweep};
  return recipe;
}

const std::vector<SynthOp>& compress2_recipe() {
  static const std::vector<SynthOp> recipe{
      SynthOp::kBalance, SynthOp::kRewrite,  SynthOp::kRefactor,
      SynthOp::kBalance, SynthOp::kRewrite,  SynthOp::kResub,
      SynthOp::kBalance};
  return recipe;
}

}  // namespace csat::synth
