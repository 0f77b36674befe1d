#include "synth/resub.h"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "aig/simulate.h"
#include "aig/window.h"
#include "synth/replace.h"
#include "tt/truth_table.h"

namespace csat::synth {

namespace {
/// Window size: 6 leaves keep every window function in one 64-bit word.
constexpr int kMaxLeaves = tt::kWordVars;
constexpr int kMaxDivisors = 48;
/// Divisor-count cap for the cubic 2-resub stage.
constexpr std::size_t kMaxDivisors2 = 12;
}  // namespace

aig::Aig resub(const aig::Aig& g) {
  const aig::FanoutIndex fanouts(g);
  std::unordered_map<std::uint32_t, Replacement> accepted;

  // Windows are capped at 6 leaves, so every window function is a
  // single-word table (tt::kVarWord layout) and the O(divisors^2) matching
  // loops below stay allocation-free.
  // Scratch: single-word tt per node, valid when stamp matches.
  std::vector<std::uint64_t> tts(g.num_nodes(), 0);
  std::vector<std::uint32_t> stamp(g.num_nodes(), 0);
  std::uint32_t generation = 0;
  // Per-node buffers, reused across nodes.
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> work;
  std::vector<std::uint64_t> div_tt;

  for (std::uint32_t n : g.live_ands()) {
    const int mffc = g.mffc_size(n);
    if (mffc < 1) continue;
    auto leaves = aig::reconv_cut(g, n, kMaxLeaves);
    std::sort(leaves.begin(), leaves.end());
    const int k = static_cast<int>(leaves.size());
    CSAT_DCHECK(k <= tt::kWordVars);
    const std::uint64_t mask = tt::word_mask(k);

    const auto divisors =
        aig::collect_divisors(g, n, leaves, fanouts, kMaxDivisors);

    // Window truth tables: leaves get projections; interior divisors AND
    // their fanins (construction guarantees fanins precede them); the root
    // cone is evaluated the same way.
    ++generation;
    for (int i = 0; i < k; ++i) {
      tts[leaves[i]] = tt::kVarWord[i] & mask;
      stamp[leaves[i]] = generation;
    }
    const auto eval_node = [&](std::uint32_t node) -> std::uint64_t {
      // Iterative topo evaluation bounded by the window.
      order.assign(1, node);
      work.assign(1, node);
      while (!work.empty()) {
        const std::uint32_t cur = work.back();
        work.pop_back();
        for (aig::Lit f : {g.fanin0(cur), g.fanin1(cur)}) {
          const std::uint32_t c = f.node();
          if (stamp[c] == generation) continue;
          CSAT_DCHECK(g.is_and(c));
          stamp[c] = generation;
          tts[c] = ~0ULL;  // placeholder until computed below
          order.push_back(c);
          work.push_back(c);
        }
      }
      std::sort(order.begin(), order.end());
      for (std::uint32_t cur : order) {
        const aig::Lit f0 = g.fanin0(cur);
        const aig::Lit f1 = g.fanin1(cur);
        const std::uint64_t a = tts[f0.node()] ^ (f0.is_compl() ? ~0ULL : 0ULL);
        const std::uint64_t b = tts[f1.node()] ^ (f1.is_compl() ? ~0ULL : 0ULL);
        tts[cur] = a & b;
      }
      return tts[node] & mask;
    };

    div_tt.resize(divisors.size());
    {
      // Divisors are evaluable in ascending id order.
      order.assign(divisors.begin(), divisors.end());
      std::sort(order.begin(), order.end());
      for (std::uint32_t d : order) {
        if (stamp[d] == generation) continue;
        const aig::Lit f0 = g.fanin0(d);
        const aig::Lit f1 = g.fanin1(d);
        CSAT_DCHECK(stamp[f0.node()] == generation &&
                    stamp[f1.node()] == generation);
        const std::uint64_t a = tts[f0.node()] ^ (f0.is_compl() ? ~0ULL : 0ULL);
        const std::uint64_t b = tts[f1.node()] ^ (f1.is_compl() ? ~0ULL : 0ULL);
        tts[d] = a & b;
        stamp[d] = generation;
      }
      for (std::size_t i = 0; i < divisors.size(); ++i)
        div_tt[i] = tts[divisors[i]] & mask;
    }
    const std::uint64_t root = eval_node(n) & mask;

    Replacement best;
    int best_gain = 0;

    // 0-resub: the node duplicates an existing divisor (either phase).
    for (std::size_t i = 0; i < divisors.size(); ++i) {
      if (divisors[i] == n) continue;
      const std::uint64_t t = div_tt[i];
      const bool direct = t == root;
      const bool inverted = ((~t) & mask) == root;
      if (!direct && !inverted) continue;
      if (mffc > best_gain) {
        best_gain = mffc;
        best.leaves = {divisors[i]};
        best.func = direct ? 0x2 : 0x1;  // x0 or ~x0 over one variable
      }
      break;
    }

    // 1-resub: root = [~](di^p & dj^q).
    if (best_gain < mffc - 1 && mffc >= 2) {
      const std::size_t nd = divisors.size();
      for (std::size_t i = 0; i < nd && best_gain < mffc - 1; ++i) {
        const std::uint64_t ti = div_tt[i];
        for (std::size_t j = i + 1; j < nd && best_gain < mffc - 1; ++j) {
          const std::uint64_t tj = div_tt[j];
          for (int ph = 0; ph < 8; ++ph) {
            const std::uint64_t a = (ph & 1) ? ~ti : ti;
            const std::uint64_t b = (ph & 2) ? ~tj : tj;
            std::uint64_t cand = a & b;
            if (ph & 4) cand = ~cand;
            if ((cand & mask) != root) continue;
            std::uint64_t f2 = ((ph & 1) ? ~0xaULL : 0xaULL) &
                               ((ph & 2) ? ~0xcULL : 0xcULL);
            if (ph & 4) f2 = ~f2;
            const std::array<std::uint32_t, 2> ls{divisors[i], divisors[j]};
            const std::uint64_t func = f2 & tt::word_mask(2);
            const int gain = mffc - count_new_nodes(g, func, ls);
            if (gain > best_gain) {
              best_gain = gain;
              best.leaves.assign(ls.begin(), ls.end());
              best.func = func;
            }
            break;
          }
        }
      }
    }

    // 2-resub: root = [~]( ([~](di^p & dj^q)) & dk^r ) over a small prefix.
    if (best_gain < mffc - 2 && mffc >= 3) {
      const std::size_t nd = std::min(divisors.size(), kMaxDivisors2);
      bool found = false;
      for (std::size_t i = 0; i < nd && !found; ++i) {
        for (std::size_t j = i + 1; j < nd && !found; ++j) {
          for (std::size_t kk = j + 1; kk < nd && !found; ++kk) {
            for (int ph = 0; ph < 32; ++ph) {
              const std::uint64_t a = (ph & 1) ? ~div_tt[i] : div_tt[i];
              const std::uint64_t b = (ph & 2) ? ~div_tt[j] : div_tt[j];
              std::uint64_t inner = a & b;
              if (ph & 4) inner = ~inner;
              std::uint64_t cand =
                  inner & ((ph & 8) ? ~div_tt[kk] : div_tt[kk]);
              if (ph & 16) cand = ~cand;
              if ((cand & mask) != root) continue;
              // Mirror the phase pattern on 3-var projections.
              std::uint64_t fx = ((ph & 1) ? ~0xaaULL : 0xaaULL) &
                                 ((ph & 2) ? ~0xccULL : 0xccULL);
              if (ph & 4) fx = ~fx;
              fx &= (ph & 8) ? ~0xf0ULL : 0xf0ULL;
              if (ph & 16) fx = ~fx;
              const std::array<std::uint32_t, 3> ls{divisors[i], divisors[j],
                                                    divisors[kk]};
              const std::uint64_t func = fx & tt::word_mask(3);
              const int gain = mffc - count_new_nodes(g, func, ls);
              if (gain > best_gain) {
                best_gain = gain;
                best.leaves.assign(ls.begin(), ls.end());
                best.func = func;
                found = true;
              }
              break;
            }
          }
        }
      }
    }

    if (!best.leaves.empty()) accepted.emplace(n, std::move(best));
  }

  if (accepted.empty()) return cleanup_copy(g);
  aig::Aig out = apply_replacements(g, accepted);
  if (out.num_ands() > g.num_live_ands()) return cleanup_copy(g);
  return out;
}

}  // namespace csat::synth
