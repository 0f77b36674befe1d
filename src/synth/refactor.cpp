#include "synth/refactor.h"

#include <algorithm>

#include "aig/simulate.h"
#include "aig/window.h"
#include "synth/replace.h"
#include "tt/truth_table.h"

namespace csat::synth {

namespace {
/// Window size: 6 leaves keep every cone function in one 64-bit word.
constexpr int kMaxLeaves = tt::kWordVars;
/// Only roots whose bounded MFFC has at least this many nodes are tried
/// (tiny cones cannot amortize the factored structure).
constexpr int kMinMffc = 2;
}  // namespace

aig::Aig refactor(const aig::Aig& g) {
  std::unordered_map<std::uint32_t, Replacement> accepted;
  for (std::uint32_t n : g.live_ands()) {
    auto leaves = aig::reconv_cut(g, n, kMaxLeaves);
    std::sort(leaves.begin(), leaves.end());
    const int freed = mffc_size_bounded(g, n, leaves);
    if (freed < kMinMffc) continue;

    const std::uint64_t func =
        aig::cone_bits(g, aig::Lit::make(n, false), leaves);
    const int added = count_new_nodes(g, func, leaves);
    const int gain = freed - added;
    if (gain > 0) {
      Replacement r;
      r.leaves = std::move(leaves);
      r.func = func;
      accepted.emplace(n, std::move(r));
    }
  }
  if (accepted.empty()) return cleanup_copy(g);

  aig::Aig out = apply_replacements(g, accepted);
  if (out.num_ands() > g.num_live_ands()) return cleanup_copy(g);
  return out;
}

}  // namespace csat::synth
