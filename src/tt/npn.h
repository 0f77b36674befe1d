#ifndef CSAT_TT_NPN_H
#define CSAT_TT_NPN_H

/// \file npn.h
/// Exact NPN canonization of 4-input functions.
///
/// Two functions are NPN-equivalent when one can be obtained from the other
/// by negating inputs (N), permuting inputs (P) and negating the output (N).
/// The 65536 four-input functions fall into 222 NPN classes. Only the
/// LUT-cost analysis bench (bench/lutcost_table) and the tests call
/// canonization, to aggregate per-class statistics. Branching complexity
/// C(f) is exactly invariant under input/output negation (cube covers map
/// one-to-one, and C is symmetric in f and ~f by construction) and
/// approximately invariant under permutation (the ISOP recursion is
/// variable-order sensitive); the tests assert both properties.

#include <array>
#include <cstdint>

namespace csat::tt {

/// A concrete NPN transform of a 4-input function.
struct NpnTransform {
  std::array<std::uint8_t, 4> perm{0, 1, 2, 3};  // output var i reads input var perm[i]
  std::uint8_t input_neg = 0;                    // bit i: negate input i (before perm)
  bool output_neg = false;
};

/// Applies \p t to the 16-bit truth table \p f: the result g satisfies
/// g(x) = f(y) ^ output_neg with y_{perm[i]} = x_i ^ ((input_neg >> i) & 1).
std::uint16_t npn4_apply(std::uint16_t f, const NpnTransform& t);

/// Result of canonization: `canon` plus the transform that produced it from
/// the input function, i.e. canon == npn4_apply(f, transform).
struct Npn4Canon {
  std::uint16_t canon = 0;
  NpnTransform transform;
};

/// Exhaustive canonization (min 16-bit value over all 768 transforms).
Npn4Canon npn4_canonize(std::uint16_t f);

/// Number of distinct NPN classes among all 4-input functions (expected 222;
/// computed by enumeration, used by tests and the lutcost bench).
int npn4_class_count();

}  // namespace csat::tt

#endif  // CSAT_TT_NPN_H
