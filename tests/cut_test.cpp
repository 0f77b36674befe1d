// Tests for cut enumeration: every cut is a real cut, functions are exact
// (validated against cone_tt at k = 4 and k = 6), dominance filtering holds,
// bounds are respected, and the word-level table stretch agrees with a
// per-minterm reference.

#include <gtest/gtest.h>

#include <algorithm>

#include "aig/simulate.h"
#include "common/rng.h"
#include "cut/cut_enum.h"
#include "gen/random_circuit.h"

namespace csat::cut {
namespace {

using aig::Aig;

/// Per-minterm reference for stretch_tt: variable i of \p f (over
/// pos.size() variables) becomes variable pos[i] of a table over n.
std::uint64_t stretch_reference(std::uint64_t f, const std::vector<int>& pos,
                                int n) {
  std::uint64_t r = 0;
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m) {
    std::uint64_t src = 0;
    for (std::size_t i = 0; i < pos.size(); ++i)
      if ((m >> pos[i]) & 1) src |= std::uint64_t{1} << i;
    if ((f >> src) & 1) r |= std::uint64_t{1} << m;
  }
  return r;
}

TEST(StretchTt, InsertsVacuousVariables) {
  // f(x0, x1) = x0 & x1 over leaves {3, 9}, expanded to leaves {3, 5, 9}.
  const std::vector<int> pos{0, 2};
  const auto e = stretch_tt(0b1000, pos) & tt::word_mask(3);
  // Result must be x0 & x2 (3 and 9 sit at positions 0 and 2 of {3, 5, 9}).
  EXPECT_EQ(e, tt::kVarWord[0] & tt::kVarWord[2] & tt::word_mask(3));
}

TEST(StretchTt, MatchesPerMintermReferenceOnEveryPlacement) {
  Rng rng(4242);
  for (int n = 1; n <= kMaxCutSize; ++n) {
    // Every strictly increasing placement of m <= n variables into n.
    for (std::uint32_t subset = 0; subset < (1u << n); ++subset) {
      std::vector<int> pos;
      for (int v = 0; v < n; ++v)
        if ((subset >> v) & 1) pos.push_back(v);
      const int m = static_cast<int>(pos.size());
      for (int iter = 0; iter < 4; ++iter) {
        const auto f = rng.next_u64() & tt::word_mask(m);
        const auto got = stretch_tt(f, pos) & tt::word_mask(n);
        ASSERT_EQ(got, stretch_reference(f, pos, n))
            << "n=" << n << " subset=" << subset;
      }
    }
  }
}

TEST(CutEnum, SmallNetworkCutsAreExact) {
  Aig g;
  const auto a = g.add_pi();
  const auto b = g.add_pi();
  const auto c = g.add_pi();
  const auto ab = g.and2(a, b);
  const auto abc = g.and2(ab, !c);
  g.add_po(abc);

  CutParams p;
  const CutEnumerator ce(g, p);
  const auto& cuts = ce.cuts(abc.node());
  // Expect at least the structural cut {ab, c} and the leaf cut {a, b, c}.
  bool found_leaf_cut = false;
  for (const Cut& cut : cuts) {
    if (std::ranges::equal(cut.leaves(), std::vector<std::uint32_t>{
                                              a.node(), b.node(), c.node()})) {
      found_leaf_cut = true;
      // abc = a & b & ~c over (a, b, c).
      const std::uint64_t want =
          tt::kVarWord[0] & tt::kVarWord[1] & ~tt::kVarWord[2];
      EXPECT_EQ(cut.func, want & tt::word_mask(3));
    }
  }
  EXPECT_TRUE(found_leaf_cut);
}

/// Parameter p: seed p % 6, cut size 4 for p < 6 and 6 above.
class CutProperty : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] int seed() const { return GetParam() % 6; }
  [[nodiscard]] int k() const { return GetParam() < 6 ? 4 : kMaxCutSize; }
};

TEST_P(CutProperty, AllCutFunctionsMatchConeTt) {
  const int seed = this->seed();
  const int k = this->k();
  gen::RandomAigParams rp;
  rp.num_pis = 7;
  rp.num_gates = 90;
  rp.xor_fraction = 0.3;
  const Aig g = gen::random_aig(rp, 300 + seed);
  CutParams p;
  p.cut_size = k;
  p.max_cuts = 6;
  const CutEnumerator ce(g, p);
  for (std::uint32_t n : g.live_ands()) {
    for (const Cut& cut : ce.cuts(n)) {
      ASSERT_LE(cut.size(), k);
      ASSERT_TRUE(std::ranges::is_sorted(cut.leaves()));
      // cone_tt CSAT_CHECKs cut-ness; word equality checks the function
      // and that no bit above the table is set.
      EXPECT_EQ(cut.func,
                aig::cone_tt(g, aig::Lit::make(n, false), cut.leaves()));
    }
  }
}

TEST_P(CutProperty, NoDominatedCutsSurvive) {
  const int seed = this->seed();
  const int k = this->k();
  gen::RandomAigParams rp;
  rp.num_pis = 6;
  rp.num_gates = 60;
  const Aig g = gen::random_aig(rp, 900 + seed);
  CutParams p;
  p.cut_size = k;
  const CutEnumerator ce(g, p);
  for (std::uint32_t n : g.live_ands()) {
    const auto& cuts = ce.cuts(n);
    for (std::size_t i = 0; i < cuts.size(); ++i)
      for (std::size_t j = 0; j < cuts.size(); ++j) {
        if (i == j) continue;
        // The unit cut {n} is kept by design even though it may be
        // dominated in the subset sense.
        if (cuts[j].size() == 1 && cuts[j].leaves()[0] == n) continue;
        EXPECT_FALSE(cuts[i].dominates(cuts[j]))
            << "node " << n << ": cut " << i << " dominates cut " << j;
      }
  }
}

TEST(CutEnum, RespectsMaxCuts) {
  gen::RandomAigParams rp;
  rp.num_pis = 8;
  rp.num_gates = 120;
  const Aig g = gen::random_aig(rp, 77);
  CutParams p;
  p.cut_size = 4;
  p.max_cuts = 4;
  const CutEnumerator ce(g, p);
  for (std::uint32_t n = 0; n < g.num_nodes(); ++n)
    EXPECT_LE(ce.cuts(n).size(), 5u);  // max_cuts + unit cut
}

TEST(CutEnum, LargerKFindsLargerCuts) {
  gen::RandomAigParams rp;
  rp.num_pis = 10;
  rp.num_gates = 150;
  const Aig g = gen::random_aig(rp, 55);
  CutParams p4;
  p4.cut_size = 4;
  CutParams p6;
  p6.cut_size = 6;
  const CutEnumerator c4(g, p4);
  const CutEnumerator c6(g, p6);
  std::size_t max4 = 0, max6 = 0;
  for (std::uint32_t n : g.live_ands()) {
    for (const Cut& c : c4.cuts(n)) max4 = std::max(max4, c.leaves().size());
    for (const Cut& c : c6.cuts(n)) max6 = std::max(max6, c.leaves().size());
  }
  EXPECT_LE(max4, 4u);
  EXPECT_GT(max6, 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace csat::cut
