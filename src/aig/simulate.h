#ifndef CSAT_AIG_SIMULATE_H
#define CSAT_AIG_SIMULATE_H

/// \file simulate.h
/// Bit-parallel simulation of AIGs.
///
/// Simulation serves three roles in the framework: (1) fast probabilistic
/// equivalence checking used by the test suite to validate every synthesis
/// pass, (2) local truth tables of cuts/cones/windows (single words over at
/// most six leaves, tt/truth_table.h) feeding ISOP, rewriting and the LUT
/// mapper, and (3) the functional half of the DeepGate2-substitute
/// embedding (random-simulation output statistics).

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.h"
#include "common/rng.h"

namespace csat::aig {

/// Simulates one 64-pattern word per node. \p pi_words holds one word per
/// primary input (in pis() order). Returns a word per node (indexed by node
/// id); the constant node simulates to 0.
std::vector<std::uint64_t> simulate_words(const Aig& g,
                                          std::span<const std::uint64_t> pi_words);

/// Evaluates the circuit on a single input assignment (bit i of the result
/// vector is meaningless beyond bit 0). Convenience for model checking.
std::vector<bool> evaluate(const Aig& g, const std::vector<bool>& pi_values);

/// Monte-Carlo equivalence check: simulates both circuits on `rounds` random
/// 64-pattern words and compares all PO words. Returns false on any
/// mismatch; true means "no difference observed" (a probabilistic claim the
/// tests combine with SAT-based miters for exactness).
bool equal_by_simulation(const Aig& a, const Aig& b, int rounds = 16,
                         std::uint64_t seed = 0x5eed);

/// Computes the local function of \p root in terms of \p leaves (which must
/// form a cut of root: every path from root to a PI/constant crosses a
/// leaf), at most 6 of them, as one word: minterm m at bit m, bits at and
/// above 2^leaves.size() zero. The synthesis kernel uses cone_bits; this
/// map-based evaluation is the independent reference the tests check cut
/// and structure tables against.
std::uint64_t cone_tt(const Aig& g, Lit root, std::span<const std::uint32_t> leaves);

/// The same table as cone_tt, allocation-free after warm-up.
std::uint64_t cone_bits(const Aig& g, Lit root,
                        std::span<const std::uint32_t> leaves);

}  // namespace csat::aig

#endif  // CSAT_AIG_SIMULATE_H
