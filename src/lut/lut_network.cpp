#include "lut/lut_network.h"

#include <algorithm>

namespace csat::lut {

int LutNetwork::depth() const {
  std::vector<int> level(types_.size(), 0);
  for (std::uint32_t n = 0; n < types_.size(); ++n) {
    if (is_pi(n)) continue;
    int l = 0;
    for (std::uint32_t f : fanins_[n]) l = std::max(l, level[f]);
    level[n] = l + 1;
  }
  int d = 0;
  for (const Po& po : pos_)
    if (po.kind == Po::Kind::kNode) d = std::max(d, level[po.node]);
  return d;
}

std::size_t LutNetwork::num_edges() const {
  std::size_t e = 0;
  for (std::uint32_t n = 0; n < types_.size(); ++n)
    if (!is_pi(n)) e += fanins_[n].size();
  return e;
}

std::vector<std::uint64_t> LutNetwork::simulate_words(
    std::span<const std::uint64_t> pi_words) const {
  CSAT_CHECK(pi_words.size() == pis_.size());
  std::vector<std::uint64_t> val(types_.size(), 0);
  std::size_t pi_idx = 0;
  for (std::uint32_t n = 0; n < types_.size(); ++n) {
    if (is_pi(n)) {
      val[n] = pi_words[pi_idx++];
      continue;
    }
    const auto& fin = fanins_[n];
    const std::uint64_t f = funcs_[n];
    // Evaluate the LUT for each of the 64 packed patterns by assembling the
    // minterm index bit-slice-wise.
    std::uint64_t out = 0;
    for (int bit = 0; bit < 64; ++bit) {
      std::uint64_t minterm = 0;
      for (std::size_t i = 0; i < fin.size(); ++i)
        if ((val[fin[i]] >> bit) & 1) minterm |= 1ULL << i;
      if ((f >> minterm) & 1) out |= 1ULL << bit;
    }
    val[n] = out;
  }
  return val;
}

std::vector<bool> LutNetwork::evaluate(const std::vector<bool>& inputs) const {
  CSAT_CHECK(inputs.size() == pis_.size());
  std::vector<std::uint64_t> words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    words[i] = inputs[i] ? ~0ULL : 0ULL;
  const auto val = simulate_words(words);
  std::vector<bool> out;
  out.reserve(pos_.size());
  for (const Po& po : pos_) {
    switch (po.kind) {
      case Po::Kind::kConst0:
        out.push_back(false);
        break;
      case Po::Kind::kConst1:
        out.push_back(true);
        break;
      case Po::Kind::kNode:
        out.push_back(((val[po.node] & 1ULL) != 0) != po.complemented);
        break;
    }
  }
  return out;
}

}  // namespace csat::lut
