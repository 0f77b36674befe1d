#include "synth/rewrite.h"

#include <unordered_map>

#include "cut/cut_enum.h"
#include "synth/replace.h"
#include "synth/resyn.h"

namespace csat::synth {

namespace {
constexpr int kCutSize = 4;  ///< leaves per cut
constexpr int kMaxCuts = 8;  ///< priority cuts kept per node
}  // namespace

aig::Aig rewrite(const aig::Aig& g) {
  const cut::CutEnumerator cuts(
      g, cut::CutParams{.cut_size = kCutSize, .max_cuts = kMaxCuts});

  std::unordered_map<std::uint32_t, Replacement> accepted;
  for (std::uint32_t n : g.live_ands()) {
    int best_gain = 0;
    const cut::Cut* best = nullptr;
    for (const cut::Cut& c : cuts.cuts(n)) {
      if (c.size() < 2) continue;  // unit cut is the node itself
      // Cheap bound first: even a free replacement cannot beat best_gain
      // unless the bounded MFFC is larger.
      const int freed = mffc_size_bounded(g, n, c.leaves());
      if (freed <= best_gain) continue;
      // Fast accept via the recorded structure's standalone size (a lower
      // bound on gain: sharing only shrinks the real structure); fall back
      // to the exact sharing-aware dry run when the bound is inconclusive.
      int gain = freed - structure_of(c.func, c.size()).size();
      if (gain <= best_gain)
        gain = freed - count_new_nodes(g, c.func, c.leaves());
      if (gain > best_gain) {
        best_gain = gain;
        best = &c;
      }
    }
    if (best != nullptr) {
      Replacement r;
      r.leaves.assign(best->leaves().begin(), best->leaves().end());
      r.func = best->func;
      accepted.emplace(n, std::move(r));
    }
  }
  if (accepted.empty()) return cleanup_copy(g);

  aig::Aig out = apply_replacements(g, accepted);
  // Interacting replacements can regress; keep the better net.
  if (out.num_ands() > g.num_live_ands()) return cleanup_copy(g);
  return out;
}

}  // namespace csat::synth
