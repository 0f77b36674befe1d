// Unit and property tests for the truth-table kernel: ISOP covers,
// branching complexity and NPN canonization.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tt/isop.h"
#include "tt/npn.h"

namespace csat::tt {
namespace {

/// A random table over \p num_vars inputs, drawn one minterm at a time.
std::uint64_t random_tt(int num_vars, Rng& rng) {
  std::uint64_t t = 0;
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << num_vars); ++m)
    if (rng.next_bool()) t |= std::uint64_t{1} << m;
  return t;
}

/// Characteristic function of a cover: the OR of its cubes.
std::uint64_t cover_word(const std::vector<Cube>& cubes, int num_vars) {
  std::uint64_t cover = 0;
  for (const Cube& c : cubes) {
    std::uint64_t t = word_mask(num_vars);
    for (int v = 0; v < num_vars; ++v)
      if (c.has_var(v)) t &= c.is_positive(v) ? kVarWord[v] : ~kVarWord[v];
    cover |= t;
  }
  return cover;
}

TEST(Isop, KnownGateCovers) {
  // AND2: onset one cube, offset two cubes -> C = 3 (paper's L1).
  const std::uint64_t and2 = 0b1000;
  EXPECT_EQ(isop(and2, 2).size(), 1u);
  EXPECT_EQ(isop(~and2, 2).size(), 2u);
  EXPECT_EQ(branching_cost(and2, 2), 3);
  // XOR2: two cubes each phase -> C = 4 (paper's L2).
  const std::uint64_t xor2 = 0b0110;
  EXPECT_EQ(isop(xor2, 2).size(), 2u);
  EXPECT_EQ(isop(~xor2, 2).size(), 2u);
  EXPECT_EQ(branching_cost(xor2, 2), 4);
  // MAJ3: three cubes per phase -> C = 6.
  EXPECT_EQ(branching_cost(0b11101000, 3), 6);
  // Constants.
  EXPECT_EQ(isop(0, 3).size(), 0u);
  EXPECT_EQ(isop(word_mask(3), 3).size(), 1u);
  EXPECT_EQ(branching_cost(0, 3), 1);
}

TEST(Isop, XorChainCoverGrowsExponentially) {
  // Parity has no short SOP: 2^(n-1) cubes per phase. This is the structural
  // reason XOR-rich instances are branching-hostile (paper Section III-C).
  for (int n = 2; n <= 5; ++n) {
    std::uint64_t parity = 0;
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m)
      if (__builtin_popcountll(m) & 1) parity |= std::uint64_t{1} << m;
    EXPECT_EQ(static_cast<int>(isop(parity, n).size()), 1 << (n - 1));
    EXPECT_EQ(branching_cost(parity, n), 1 << n);
  }
}

class IsopProperty : public ::testing::TestWithParam<int> {};

TEST_P(IsopProperty, CoverEqualsFunction) {
  Rng rng(1000 + GetParam());
  for (int n = 1; n <= kWordVars; ++n) {
    const auto f = random_tt(n, rng);
    const auto cubes = isop(f, n);
    EXPECT_EQ(cover_word(cubes, n), f) << "n=" << n;
    // No cube may dip into the offset.
    for (const Cube& c : cubes)
      EXPECT_EQ(cover_word({c}, n) & ~f, 0u);
  }
}

TEST_P(IsopProperty, DontCaresShrinkCovers) {
  Rng rng(2000 + GetParam());
  for (int n = 2; n <= 6; ++n) {
    const auto f = random_tt(n, rng);
    const auto dc = random_tt(n, rng);
    const auto on = f & ~dc;
    const auto upper = f | dc;
    const auto cubes = isop(on, upper, n);
    const auto cov = cover_word(cubes, n);
    EXPECT_EQ(on & ~cov, 0u);
    EXPECT_EQ(cov & ~upper, 0u);
    EXPECT_LE(cubes.size(), isop(on, n).size() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsopProperty, ::testing::Range(0, 10));

TEST(Npn, ApplyIdentityTransform) {
  const NpnTransform id;
  for (std::uint16_t f : {0x8000, 0x6996, 0x1234, 0xcafe})
    EXPECT_EQ(npn4_apply(f, id), f);
}

TEST(Npn, CanonicalFormIsReachedByReportedTransform) {
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto f = static_cast<std::uint16_t>(rng.next_u64());
    const Npn4Canon c = npn4_canonize(f);
    EXPECT_EQ(npn4_apply(f, c.transform), c.canon);
  }
}

TEST(Npn, EquivalentFunctionsShareCanon) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const auto f = static_cast<std::uint16_t>(rng.next_u64());
    NpnTransform t;
    t.perm = {1, 3, 0, 2};
    t.input_neg = static_cast<std::uint8_t>(rng.next_below(16));
    t.output_neg = rng.next_bool();
    const std::uint16_t g = npn4_apply(f, t);
    EXPECT_EQ(npn4_canonize(f).canon, npn4_canonize(g).canon);
  }
}

TEST(Npn, BranchingCostInvariantUnderNegations) {
  // Exact invariant: input/output negation maps ISOP covers bijectively.
  // (Permutation is only *approximately* cost-preserving because the
  // Minato-Morreale recursion is variable-order sensitive.)
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const auto f = static_cast<std::uint16_t>(rng.next_u64());
    NpnTransform t;
    t.input_neg = static_cast<std::uint8_t>(rng.next_below(16));
    t.output_neg = rng.next_bool();
    const std::uint16_t g = npn4_apply(f, t);
    EXPECT_EQ(branching_cost(f, 4), branching_cost(g, 4));
  }
}

TEST(Npn, BranchingCostNearlyInvariantUnderPermutation) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const auto f = static_cast<std::uint16_t>(rng.next_u64());
    NpnTransform t;
    t.perm = {2, 0, 3, 1};
    const std::uint16_t g = npn4_apply(f, t);
    const int cf = branching_cost(f, 4);
    const int cg = branching_cost(g, 4);
    EXPECT_LE(std::abs(cf - cg), 2) << "f=" << f;
  }
}

TEST(Npn, ClassCountIs222) { EXPECT_EQ(npn4_class_count(), 222); }

}  // namespace
}  // namespace csat::tt
