#ifndef CSAT_COMMON_LUBY_H
#define CSAT_COMMON_LUBY_H

/// \file luby.h
/// Luby restart sequence (1,1,2,1,1,2,4,...) behind sat::RestartPolicy
/// (sat/clause_db.h), the restart schedule of both CDCL cores. Its own
/// header because tests exercise it directly.

#include <cstdint>

namespace csat {

/// Returns the i-th element of the Luby sequence (i >= 1).
inline std::uint64_t luby(std::uint64_t i) {
  // Find the subsequence [2^k - 1] containing i, then recurse.
  std::uint64_t k = 1;
  while (((1ULL << k) - 1) < i) ++k;
  while (((1ULL << k) - 1) != i) {
    i -= (1ULL << (k - 1)) - 1;
    k = 1;
    while (((1ULL << k) - 1) < i) ++k;
  }
  return 1ULL << (k - 1);
}

}  // namespace csat

#endif  // CSAT_COMMON_LUBY_H
