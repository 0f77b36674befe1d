#ifndef CSAT_TT_TRUTH_TABLE_H
#define CSAT_TT_TRUTH_TABLE_H

/// \file truth_table.h
/// Truth tables as single 64-bit words.
///
/// Every function the framework tabulates has at most kWordVars = 6 inputs:
/// cut and LUT functions, refactor and resub windows, ISOP covers and CNF
/// encodings, recorded synthesis structures and reference cone tables. Its
/// table is one std::uint64_t with minterm m at bit m, and the arity is
/// carried beside the word (a cut's size, a LUT's fanin count, a leaf
/// span's length). Stored tables keep the bits at and above 2^arity zero;
/// word_mask(arity) selects the valid ones.

#include <cstdint>

namespace csat::tt {

/// Largest arity: 2^6 = 64 minterms fill the word.
inline constexpr int kWordVars = 6;

/// kVarWord[v] is the projection x_v over all six variables.
inline constexpr std::uint64_t kVarWord[kWordVars] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

/// The 2^num_vars valid bits of a table (num_vars <= 6).
constexpr std::uint64_t word_mask(int num_vars) {
  return num_vars >= kWordVars ? ~0ULL : (1ULL << (1u << num_vars)) - 1;
}

}  // namespace csat::tt

#endif  // CSAT_TT_TRUTH_TABLE_H
