#include "tt/truth_table.h"

namespace csat::tt {

TruthTable TruthTable::projection(int num_vars, int var) {
  CSAT_CHECK(var >= 0 && var < num_vars);
  TruthTable t(num_vars);
  if (var < 6) {
    for (auto& w : t.words_) w = kVarWord[var];
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < t.words_.size(); ++i)
      if ((i / stride) & 1) t.words_[i] = ~0ULL;
  }
  t.mask_unused();
  return t;
}

TruthTable TruthTable::cofactor(int var, bool value) const {
  CSAT_CHECK(var >= 0 && var < num_vars_);
  TruthTable r(*this);
  if (var < 6) {
    const int shift = 1 << var;
    const std::uint64_t hi = kVarWord[var];
    for (auto& w : r.words_) {
      if (value) {
        const std::uint64_t part = w & hi;
        w = part | (part >> shift);
      } else {
        const std::uint64_t part = w & ~hi;
        w = part | (part << shift);
      }
    }
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < r.words_.size(); ++i) {
      const std::size_t src =
          value ? (i | stride) : (i & ~stride);
      r.words_[i] = words_[src];
    }
  }
  r.mask_unused();
  return r;
}

TruthTable TruthTable::flip(int var) const {
  CSAT_CHECK(var >= 0 && var < num_vars_);
  TruthTable r(*this);
  if (var < 6) {
    const int shift = 1 << var;
    const std::uint64_t hi = kVarWord[var];
    for (auto& w : r.words_) w = ((w & hi) >> shift) | ((w & ~hi) << shift);
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t i = 0; i < r.words_.size(); ++i) r.words_[i] = words_[i ^ stride];
  }
  r.mask_unused();
  return r;
}

TruthTable TruthTable::permute(const std::vector<int>& perm) const {
  CSAT_CHECK(static_cast<int>(perm.size()) == num_vars_);
  TruthTable r(num_vars_);
  const std::uint64_t n = num_minterms();
  for (std::uint64_t m = 0; m < n; ++m) {
    std::uint64_t src = 0;
    for (int i = 0; i < num_vars_; ++i)
      if ((m >> i) & 1) src |= std::uint64_t{1} << perm[i];
    if (get_bit(src)) r.set_bit(m);
  }
  return r;
}

std::string TruthTable::to_binary() const {
  std::string s;
  const std::uint64_t n = num_minterms();
  s.reserve(n);
  for (std::uint64_t m = n; m-- > 0;) s.push_back(get_bit(m) ? '1' : '0');
  return s;
}

}  // namespace csat::tt
