#ifndef CSAT_TT_TRUTH_TABLE_H
#define CSAT_TT_TRUTH_TABLE_H

/// \file truth_table.h
/// Dynamic truth tables over up to 16 variables.
///
/// A TruthTable stores the complete function table of a Boolean function as
/// packed 64-bit words (minterm i lives at bit i%64 of word i/64). It backs
/// LUT functions, ISOP covers, CNF encodings, NPN canonization and the
/// reference cone evaluator aig::cone_tt. The synthesis kernel (cuts,
/// refactor and resub windows, resynthesized structures) works on at most
/// six inputs and keeps those functions in a single std::uint64_t with the
/// same minterm order (see from_bits / bits6). Sixteen variables (1 MiB per
/// table) is a deliberate hard cap: nothing in the framework collapses
/// larger cones.

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"

namespace csat::tt {

/// Single-word tables: a function of at most kWordVars = 6 variables as one
/// std::uint64_t, minterm m at bit m (the layout of TruthTable's first
/// word). The synthesis kernel (cuts, refactor and resub windows, recorded
/// structures) is capped at this many inputs. kVarWord[v] is the
/// projection x_v over all six variables.
inline constexpr int kWordVars = 6;

inline constexpr std::uint64_t kVarWord[kWordVars] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

/// The 2^num_vars valid bits of a single-word table (num_vars <= 6).
constexpr std::uint64_t word_mask(int num_vars) {
  return num_vars >= kWordVars ? ~0ULL : (1ULL << (1u << num_vars)) - 1;
}

class TruthTable {
 public:
  static constexpr int kMaxVars = 16;

  /// Constant-zero function of \p num_vars variables.
  explicit TruthTable(int num_vars = 0)
      : num_vars_(num_vars), words_(word_count(num_vars), 0) {
    CSAT_CHECK(num_vars >= 0 && num_vars <= kMaxVars);
  }

  /// --- factories -------------------------------------------------------

  static TruthTable zeros(int num_vars) { return TruthTable(num_vars); }

  static TruthTable ones(int num_vars) {
    TruthTable t(num_vars);
    for (auto& w : t.words_) w = ~0ULL;
    t.mask_unused();
    return t;
  }

  /// The projection function f(x) = x_var.
  static TruthTable projection(int num_vars, int var);

  /// Builds a table over \p num_vars <= 6 variables from the low 2^num_vars
  /// bits of \p bits (minterm i at bit i). Used heavily by tests.
  static TruthTable from_bits(std::uint64_t bits, int num_vars) {
    CSAT_CHECK(num_vars <= 6);
    TruthTable t(num_vars);
    t.words_[0] = bits;
    t.mask_unused();
    return t;
  }

  /// --- observers -------------------------------------------------------

  [[nodiscard]] int num_vars() const { return num_vars_; }
  [[nodiscard]] std::uint64_t num_minterms() const { return 1ULL << num_vars_; }
  [[nodiscard]] const std::vector<std::uint64_t>& words() const { return words_; }

  [[nodiscard]] bool get_bit(std::uint64_t minterm) const {
    CSAT_DCHECK(minterm < num_minterms());
    return (words_[minterm >> 6] >> (minterm & 63)) & 1ULL;
  }

  void set_bit(std::uint64_t minterm, bool value = true) {
    CSAT_DCHECK(minterm < num_minterms());
    const std::uint64_t mask = 1ULL << (minterm & 63);
    if (value)
      words_[minterm >> 6] |= mask;
    else
      words_[minterm >> 6] &= ~mask;
  }

  [[nodiscard]] bool is_const0() const {
    for (auto w : words_)
      if (w != 0) return false;
    return true;
  }

  [[nodiscard]] bool is_const1() const { return (~*this).is_const0(); }

  [[nodiscard]] int count_ones() const {
    int n = 0;
    for (auto w : words_) n += __builtin_popcountll(w);
    return n;
  }

  /// True iff the function's value depends on x_var.
  [[nodiscard]] bool depends_on(int var) const {
    return cofactor(var, false) != cofactor(var, true);
  }

  /// Bitmask of variables in the functional support.
  [[nodiscard]] std::uint32_t support() const {
    std::uint32_t s = 0;
    for (int v = 0; v < num_vars_; ++v)
      if (depends_on(v)) s |= 1u << v;
    return s;
  }

  [[nodiscard]] int support_size() const { return __builtin_popcount(support()); }

  /// Low 2^n bits as an integer (only valid for num_vars <= 6).
  [[nodiscard]] std::uint64_t bits6() const {
    CSAT_CHECK(num_vars_ <= 6);
    return words_[0];
  }

  /// Minterms as a binary string, most significant minterm first.
  [[nodiscard]] std::string to_binary() const;

  /// --- Boolean algebra --------------------------------------------------

  TruthTable operator~() const {
    TruthTable r(*this);
    for (auto& w : r.words_) w = ~w;
    r.mask_unused();
    return r;
  }

  TruthTable& operator&=(const TruthTable& o) { return apply(o, [](std::uint64_t a, std::uint64_t b) { return a & b; }); }
  TruthTable& operator|=(const TruthTable& o) { return apply(o, [](std::uint64_t a, std::uint64_t b) { return a | b; }); }
  TruthTable& operator^=(const TruthTable& o) { return apply(o, [](std::uint64_t a, std::uint64_t b) { return a ^ b; }); }

  friend TruthTable operator&(TruthTable a, const TruthTable& b) { return a &= b; }
  friend TruthTable operator|(TruthTable a, const TruthTable& b) { return a |= b; }
  friend TruthTable operator^(TruthTable a, const TruthTable& b) { return a ^= b; }

  friend bool operator==(const TruthTable& a, const TruthTable& b) {
    return a.num_vars_ == b.num_vars_ && a.words_ == b.words_;
  }
  friend bool operator!=(const TruthTable& a, const TruthTable& b) { return !(a == b); }

  /// Lexicographic order on (num_vars, words); used for canonical pick.
  friend bool operator<(const TruthTable& a, const TruthTable& b) {
    if (a.num_vars_ != b.num_vars_) return a.num_vars_ < b.num_vars_;
    for (std::size_t i = a.words_.size(); i-- > 0;)
      if (a.words_[i] != b.words_[i]) return a.words_[i] < b.words_[i];
    return false;
  }

  /// --- structural operations --------------------------------------------

  /// Cofactor with x_var fixed to \p value; the result still ranges over the
  /// same variable set (the fixed variable becomes vacuous).
  [[nodiscard]] TruthTable cofactor(int var, bool value) const;

  /// Function with the polarity of x_var flipped: g(x) = f(x ^ e_var).
  [[nodiscard]] TruthTable flip(int var) const;

  /// Variable permutation: result g satisfies g(x_0..x_{n-1}) = f(y) with
  /// y_{perm[i]} = x_i. perm must be a permutation of 0..n-1.
  [[nodiscard]] TruthTable permute(const std::vector<int>& perm) const;

  /// 64-bit hash (fnv-style over words), for cache keys.
  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<std::uint64_t>(num_vars_);
    for (auto w : words_) {
      h ^= w;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return h;
  }

 private:
  static std::size_t word_count(int num_vars) {
    return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
  }

  template <typename Op>
  TruthTable& apply(const TruthTable& o, Op op) {
    CSAT_CHECK(num_vars_ == o.num_vars_);
    for (std::size_t i = 0; i < words_.size(); ++i)
      words_[i] = op(words_[i], o.words_[i]);
    return *this;
  }

  /// Clears bits above minterm 2^n-1 so equality/hash are canonical.
  void mask_unused() { words_[0] &= word_mask(num_vars_); }

  int num_vars_;
  std::vector<std::uint64_t> words_;
};

}  // namespace csat::tt

#endif  // CSAT_TT_TRUTH_TABLE_H
