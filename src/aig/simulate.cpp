#include "aig/simulate.h"

#include <algorithm>
#include <unordered_map>

#include "tt/truth_table.h"

namespace csat::aig {

std::vector<std::uint64_t> simulate_words(const Aig& g,
                                          std::span<const std::uint64_t> pi_words) {
  CSAT_CHECK(pi_words.size() == g.num_pis());
  std::vector<std::uint64_t> val(g.num_nodes(), 0);
  for (std::uint32_t n = 1; n < g.num_nodes(); ++n) {
    if (g.is_pi(n)) {
      val[n] = pi_words[g.pi_index(n)];
    } else {
      const Lit f0 = g.fanin0(n);
      const Lit f1 = g.fanin1(n);
      const std::uint64_t a = val[f0.node()] ^ (f0.is_compl() ? ~0ULL : 0ULL);
      const std::uint64_t b = val[f1.node()] ^ (f1.is_compl() ? ~0ULL : 0ULL);
      val[n] = a & b;
    }
  }
  return val;
}

std::vector<bool> evaluate(const Aig& g, const std::vector<bool>& pi_values) {
  CSAT_CHECK(pi_values.size() == g.num_pis());
  std::vector<std::uint64_t> words(g.num_pis());
  for (std::size_t i = 0; i < pi_values.size(); ++i)
    words[i] = pi_values[i] ? ~0ULL : 0ULL;
  const auto val = simulate_words(g, words);
  std::vector<bool> out;
  out.reserve(g.num_pos());
  for (Lit po : g.pos())
    out.push_back(((val[po.node()] & 1ULL) != 0) != po.is_compl());
  return out;
}

bool equal_by_simulation(const Aig& a, const Aig& b, int rounds,
                         std::uint64_t seed) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) return false;
  Rng rng(seed);
  std::vector<std::uint64_t> pi_words(a.num_pis());
  for (int r = 0; r < rounds; ++r) {
    for (auto& w : pi_words) w = rng.next_u64();
    const auto va = simulate_words(a, pi_words);
    const auto vb = simulate_words(b, pi_words);
    for (std::size_t i = 0; i < a.num_pos(); ++i) {
      const Lit pa = a.pos()[i];
      const Lit pb = b.pos()[i];
      const std::uint64_t wa = va[pa.node()] ^ (pa.is_compl() ? ~0ULL : 0ULL);
      const std::uint64_t wb = vb[pb.node()] ^ (pb.is_compl() ? ~0ULL : 0ULL);
      if (wa != wb) return false;
    }
  }
  return true;
}

std::uint64_t cone_bits(const Aig& g, Lit root,
                        std::span<const std::uint32_t> leaves) {
  const int k = static_cast<int>(leaves.size());
  CSAT_CHECK(k <= tt::kWordVars);

  // Per-thread scratch: a node's word is valid while its stamp equals the
  // current generation, so nothing is cleared between calls.
  thread_local std::vector<std::uint64_t> word;
  thread_local std::vector<std::uint32_t> stamp;
  thread_local std::vector<std::uint32_t> stack;
  thread_local std::vector<std::uint32_t> cone;
  thread_local std::uint32_t generation = 0;
  if (stamp.size() < g.num_nodes()) {
    stamp.resize(g.num_nodes(), 0);
    word.resize(g.num_nodes(), 0);
  }
  if (++generation == 0) {  // wrapped: forget every stale stamp
    std::fill(stamp.begin(), stamp.end(), 0);
    generation = 1;
  }
  const auto known = [&](std::uint32_t n) { return stamp[n] == generation; };
  const auto set = [&](std::uint32_t n, std::uint64_t w) {
    stamp[n] = generation;
    word[n] = w;
  };
  // A repeated leaf keeps its first variable; the constant is FALSE unless
  // it is itself a leaf.
  for (int i = 0; i < k; ++i)
    if (!known(leaves[i])) set(leaves[i], tt::kVarWord[i]);
  if (!known(0)) set(0, 0);

  // Collect the cone above the leaves, then evaluate it in id order (ids
  // are topological).
  cone.clear();
  stack.assign(1, root.node());
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (known(n)) continue;
    CSAT_CHECK_MSG(g.is_and(n), "cone_bits: leaves do not form a cut of root");
    set(n, 0);
    cone.push_back(n);
    stack.push_back(g.fanin0(n).node());
    stack.push_back(g.fanin1(n).node());
  }
  std::sort(cone.begin(), cone.end());
  for (std::uint32_t n : cone) {
    const Lit f0 = g.fanin0(n);
    const Lit f1 = g.fanin1(n);
    word[n] = (word[f0.node()] ^ (f0.is_compl() ? ~0ULL : 0ULL)) &
              (word[f1.node()] ^ (f1.is_compl() ? ~0ULL : 0ULL));
  }
  const std::uint64_t result = word[root.node()];
  return (root.is_compl() ? ~result : result) & tt::word_mask(k);
}

std::uint64_t cone_tt(const Aig& g, Lit root, std::span<const std::uint32_t> leaves) {
  const int k = static_cast<int>(leaves.size());
  CSAT_CHECK(k <= tt::kWordVars);
  const std::uint64_t mask = tt::word_mask(k);

  std::unordered_map<std::uint32_t, std::uint64_t> memo;
  memo.reserve(64);
  for (int i = 0; i < k; ++i) memo.emplace(leaves[i], tt::kVarWord[i] & mask);
  memo.emplace(0u, 0);  // constant node

  // Iterative post-order evaluation to keep deep cones off the call stack.
  std::vector<std::uint32_t> stack{root.node()};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    if (memo.contains(n)) {
      stack.pop_back();
      continue;
    }
    CSAT_CHECK_MSG(g.is_and(n), "cone_tt: leaves do not form a cut of root");
    const std::uint32_t c0 = g.fanin0(n).node();
    const std::uint32_t c1 = g.fanin1(n).node();
    const bool ready0 = memo.contains(c0);
    const bool ready1 = memo.contains(c1);
    if (ready0 && ready1) {
      stack.pop_back();
      std::uint64_t t0 = memo.at(c0);
      if (g.fanin0(n).is_compl()) t0 = ~t0 & mask;
      std::uint64_t t1 = memo.at(c1);
      if (g.fanin1(n).is_compl()) t1 = ~t1 & mask;
      memo.emplace(n, t0 & t1);
    } else {
      if (!ready0) stack.push_back(c0);
      if (!ready1) stack.push_back(c1);
    }
  }
  const std::uint64_t result = memo.at(root.node());
  return root.is_compl() ? ~result & mask : result;
}

}  // namespace csat::aig
