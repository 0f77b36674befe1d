#include "tt/isop.h"

#include "common/check.h"

namespace csat::tt {

namespace {

/// Cofactors of a table with x_v fixed to 0 / 1, over the same variables.
std::uint64_t cofactor0(std::uint64_t t, int v) {
  const std::uint64_t lo = t & ~kVarWord[v];
  return lo | (lo << (1 << v));
}

std::uint64_t cofactor1(std::uint64_t t, int v) {
  const std::uint64_t hi = t & kVarWord[v];
  return hi | (hi >> (1 << v));
}

/// Recursive Minato-Morreale ISOP over tables masked to \p full. Returns the
/// cover's cubes (appended to \p out) and its characteristic function.
/// Invariant: on <= upper. \p max_var is an exclusive upper bound on
/// variables that may still be in the support (monotonically shrinks down
/// the recursion).
std::uint64_t isop_rec(std::uint64_t on, std::uint64_t upper,
                       std::uint64_t full, int max_var,
                       std::vector<Cube>& out) {
  if (on == 0) return 0;
  if ((upper & full) == full) {
    out.push_back(Cube{});  // tautology cube (no literals)
    return full;
  }

  // Find the top variable either side still depends on.
  int var = max_var - 1;
  while (var >= 0 && cofactor0(on, var) == cofactor1(on, var) &&
         cofactor0(upper, var) == cofactor1(upper, var))
    --var;
  CSAT_CHECK_MSG(var >= 0, "isop: non-constant function with empty support");

  const std::uint64_t on0 = cofactor0(on, var) & full;
  const std::uint64_t on1 = cofactor1(on, var) & full;
  const std::uint64_t up0 = cofactor0(upper, var) & full;
  const std::uint64_t up1 = cofactor1(upper, var) & full;

  // Cubes that must contain literal ~x cover onset minterms of the 0-branch
  // that the 1-branch cannot absorb, and dually for literal x.
  const std::size_t first0 = out.size();
  const std::uint64_t cov0 = isop_rec(on0 & ~up1, up0, full, var, out);
  const std::size_t first1 = out.size();
  const std::uint64_t cov1 = isop_rec(on1 & ~up0, up1, full, var, out);
  const std::size_t first_star = out.size();

  // Remaining onset handled by cubes independent of x.
  const std::uint64_t on_star = (on0 & ~cov0) | (on1 & ~cov1);
  const std::uint64_t cov_star = isop_rec(on_star, up0 & up1, full, var, out);

  for (std::size_t i = first0; i < first1; ++i) out[i].add_lit(var, false);
  for (std::size_t i = first1; i < first_star; ++i) out[i].add_lit(var, true);

  const std::uint64_t x = kVarWord[var] & full;
  return (cov0 & ~x) | (cov1 & x) | cov_star;
}

}  // namespace

std::vector<Cube> isop(std::uint64_t on, std::uint64_t upper, int num_vars) {
  CSAT_CHECK(num_vars >= 0 && num_vars <= kWordVars);
  const std::uint64_t full = word_mask(num_vars);
  on &= full;
  upper &= full;
  CSAT_CHECK_MSG((on & ~upper) == 0, "isop: on-set not within upper bound");
  std::vector<Cube> cubes;
  [[maybe_unused]] const std::uint64_t cover =
      isop_rec(on, upper, full, num_vars, cubes);
  CSAT_DCHECK((on & ~cover) == 0);
  CSAT_DCHECK((cover & ~upper) == 0);
  return cubes;
}

int branching_cost(std::uint64_t f, int num_vars) {
  return static_cast<int>(isop(f, num_vars).size() +
                          isop(~f, num_vars).size());
}

}  // namespace csat::tt
