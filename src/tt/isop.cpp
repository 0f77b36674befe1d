#include "tt/isop.h"

namespace csat::tt {

TruthTable Cube::to_tt(int num_vars) const {
  TruthTable t = TruthTable::ones(num_vars);
  for (int v = 0; v < num_vars; ++v) {
    if (!has_var(v)) continue;
    const TruthTable p = TruthTable::projection(num_vars, v);
    t &= is_positive(v) ? p : ~p;
  }
  return t;
}

namespace {

/// Single-word fast path (num_vars <= 6): identical recursion over uint64
/// tables, allocation-free. Every LUT cost, LUT encoding and recorded
/// synthesis structure goes through it.
struct Word64 {
  static std::uint64_t cof0(std::uint64_t t, int v) {
    const std::uint64_t lo = t & ~kVarWord[v];
    return lo | (lo << (1 << v));
  }
  static std::uint64_t cof1(std::uint64_t t, int v) {
    const std::uint64_t hi = t & kVarWord[v];
    return hi | (hi >> (1 << v));
  }
};

std::uint64_t isop_rec64(std::uint64_t on, std::uint64_t upper,
                         std::uint64_t full, int max_var,
                         std::vector<Cube>& out) {
  if (on == 0) return 0;
  if ((upper & full) == full) {
    out.push_back(Cube{});
    return full;
  }
  int var = max_var - 1;
  while (var >= 0) {
    if (Word64::cof0(on, var) != Word64::cof1(on, var) ||
        Word64::cof0(upper, var) != Word64::cof1(upper, var))
      break;
    --var;
  }
  CSAT_CHECK_MSG(var >= 0, "isop64: non-constant function with empty support");

  const std::uint64_t on0 = Word64::cof0(on, var) & full;
  const std::uint64_t on1 = Word64::cof1(on, var) & full;
  const std::uint64_t up0 = Word64::cof0(upper, var) & full;
  const std::uint64_t up1 = Word64::cof1(upper, var) & full;

  const std::size_t first0 = out.size();
  const std::uint64_t cov0 = isop_rec64(on0 & ~up1, up0, full, var, out);
  const std::size_t first1 = out.size();
  const std::uint64_t cov1 = isop_rec64(on1 & ~up0, up1, full, var, out);
  const std::size_t first_star = out.size();

  const std::uint64_t on_star = (on0 & ~cov0) | (on1 & ~cov1);
  const std::uint64_t cov_star =
      isop_rec64(on_star, up0 & up1, full, var, out);

  for (std::size_t i = first0; i < first1; ++i) out[i].add_lit(var, false);
  for (std::size_t i = first1; i < first_star; ++i) out[i].add_lit(var, true);

  const std::uint64_t x = kVarWord[var] & full;
  return (cov0 & ~x) | (cov1 & x) | cov_star;
}

/// Recursive Minato-Morreale ISOP. Returns the cover's cubes (appended to
/// \p out) and its characteristic function. Invariant: on <= upper.
/// \p max_var is an exclusive upper bound on variables that may still be in
/// the support (monotonically shrinks down the recursion).
TruthTable isop_rec(const TruthTable& on, const TruthTable& upper, int max_var,
                    std::vector<Cube>& out) {
  if (on.is_const0()) return TruthTable::zeros(on.num_vars());
  if (upper.is_const1()) {
    out.push_back(Cube{});  // tautology cube (no literals)
    return TruthTable::ones(on.num_vars());
  }

  // Find the top variable either side still depends on.
  int var = max_var - 1;
  while (var >= 0 && !on.depends_on(var) && !upper.depends_on(var)) --var;
  CSAT_CHECK_MSG(var >= 0, "isop: non-constant function with empty support");

  const TruthTable on0 = on.cofactor(var, false);
  const TruthTable on1 = on.cofactor(var, true);
  const TruthTable up0 = upper.cofactor(var, false);
  const TruthTable up1 = upper.cofactor(var, true);

  // Cubes that must contain literal ~x cover onset minterms of the 0-branch
  // that the 1-branch cannot absorb, and dually for literal x.
  const std::size_t first0 = out.size();
  const TruthTable cov0 = isop_rec(on0 & ~up1, up0, var, out);
  const std::size_t first1 = out.size();
  const TruthTable cov1 = isop_rec(on1 & ~up0, up1, var, out);
  const std::size_t first_star = out.size();

  // Remaining onset handled by cubes independent of x.
  const TruthTable on_star = (on0 & ~cov0) | (on1 & ~cov1);
  const TruthTable cov_star = isop_rec(on_star, up0 & up1, var, out);

  for (std::size_t i = first0; i < first1; ++i) out[i].add_lit(var, false);
  for (std::size_t i = first1; i < first_star; ++i) out[i].add_lit(var, true);

  const TruthTable x = TruthTable::projection(on.num_vars(), var);
  return (cov0 & ~x) | (cov1 & x) | cov_star;
}

}  // namespace

std::vector<Cube> isop(const TruthTable& on, const TruthTable& upper) {
  CSAT_CHECK(on.num_vars() == upper.num_vars());
  CSAT_CHECK_MSG((on & ~upper).is_const0(), "isop: on-set not within upper bound");
  std::vector<Cube> cubes;
  if (on.num_vars() <= 6) {
    const std::uint64_t full = word_mask(on.num_vars());
    [[maybe_unused]] const std::uint64_t cover = isop_rec64(on.bits6() & full,
                                           upper.bits6() & full, full,
                                           on.num_vars(), cubes);
    CSAT_DCHECK((on.bits6() & ~cover & full) == 0);
    CSAT_DCHECK((cover & ~upper.bits6() & full) == 0);
    return cubes;
  }
  const TruthTable cover = isop_rec(on, upper, on.num_vars(), cubes);
  // The cover must lie in the [on, upper] interval; cheap to re-check here
  // and it guards the CNF encoder against any regression in the recursion.
  CSAT_CHECK((on & ~cover).is_const0());
  CSAT_CHECK((cover & ~upper).is_const0());
  return cubes;
}

TruthTable cover_tt(const std::vector<Cube>& cubes, int num_vars) {
  TruthTable t(num_vars);
  for (const Cube& c : cubes) t |= c.to_tt(num_vars);
  return t;
}

int isop_cube_count(const TruthTable& f) {
  return static_cast<int>(isop(f).size());
}

int branching_cost(const TruthTable& f) {
  return isop_cube_count(f) + isop_cube_count(~f);
}

}  // namespace csat::tt
