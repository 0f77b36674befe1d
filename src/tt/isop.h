#ifndef CSAT_TT_ISOP_H
#define CSAT_TT_ISOP_H

/// \file isop.h
/// Irredundant sum-of-products covers (Minato-Morreale ISOP) and the
/// *branching complexity* metric of Section III-C of the paper.
///
/// The branching complexity of a LUT function f is the total number of
/// fanin-value combinations a circuit-SAT solver can branch into, counted at
/// cube granularity over both output phases (Fig. 3 of the paper):
///   C(f) = |ISOP(f)| + |ISOP(~f)|.
/// For AND2 this yields 3 (one onset cube, two offset cubes), for XOR2 it
/// yields 4 — matching the paper's worked example. C(f) also equals the
/// number of clauses the ISOP LUT->CNF encoder emits for f, which is the
/// formal bridge between the mapper's cost function and the CNF the solver
/// finally sees.
///
/// Functions are single-word tables of at most six inputs (truth_table.h)
/// passed as (word, arity); the bits at and above 2^arity are ignored.

#include <cstdint>
#include <vector>

#include "tt/truth_table.h"

namespace csat::tt {

/// A product term over variables 0..31: var i is present iff bit i of mask
/// is set; if present, its polarity is positive iff bit i of pol is set.
struct Cube {
  std::uint32_t mask = 0;
  std::uint32_t pol = 0;

  [[nodiscard]] int num_lits() const { return __builtin_popcount(mask); }

  [[nodiscard]] bool has_var(int v) const { return (mask >> v) & 1u; }
  [[nodiscard]] bool is_positive(int v) const { return (pol >> v) & 1u; }

  void add_lit(int v, bool positive) {
    mask |= 1u << v;
    if (positive)
      pol |= 1u << v;
    else
      pol &= ~(1u << v);
  }

  friend bool operator==(const Cube& a, const Cube& b) {
    return a.mask == b.mask && a.pol == b.pol;
  }
};

/// Computes an irredundant SOP cover F of \p num_vars <= 6 inputs with
/// on <= F <= upper (bit-wise implication); requires on <= upper. With
/// upper == on this is an exact irredundant cover of the function `on`.
std::vector<Cube> isop(std::uint64_t on, std::uint64_t upper, int num_vars);

/// Exact irredundant cover of f (no don't-cares).
inline std::vector<Cube> isop(std::uint64_t f, int num_vars) {
  return isop(f, f, num_vars);
}

/// Branching complexity C(f) = |ISOP(f)| + |ISOP(~f)| (paper Section III-C).
int branching_cost(std::uint64_t f, int num_vars);

}  // namespace csat::tt

#endif  // CSAT_TT_ISOP_H
