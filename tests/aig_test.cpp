// Tests for the AIG package: structural hashing invariants, derived
// connectives, cleanup, MFFC, windowing, simulation, cone truth tables and
// AIGER round-trips (including malformed-input rejection).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "aig/aig.h"
#include "aig/aiger_io.h"
#include "aig/simulate.h"
#include "aig/window.h"
#include "common/rng.h"

namespace csat::aig {
namespace {

/// Random strashed AIG with the given shape (used by several suites).
Aig random_aig(int num_pis, int num_ands, std::uint64_t seed, int num_pos = 1) {
  Rng rng(seed);
  Aig g;
  std::vector<Lit> pool;
  for (int i = 0; i < num_pis; ++i) pool.push_back(g.add_pi());
  for (int i = 0; i < num_ands; ++i) {
    Lit a = pool[rng.next_below(pool.size())] ^ rng.next_bool();
    Lit b = pool[rng.next_below(pool.size())] ^ rng.next_bool();
    pool.push_back(g.and2(a, b));
  }
  for (int i = 0; i < num_pos; ++i)
    g.add_po(pool[pool.size() - 1 - rng.next_below(pool.size() / 2 + 1)] ^
             rng.next_bool());
  return g;
}

TEST(Aig, ConstantFoldingRules) {
  Aig g;
  const Lit a = g.add_pi();
  EXPECT_EQ(g.and2(a, kFalse), kFalse);
  EXPECT_EQ(g.and2(kTrue, a), a);
  EXPECT_EQ(g.and2(a, a), a);
  EXPECT_EQ(g.and2(a, !a), kFalse);
  EXPECT_EQ(g.num_ands(), 0u);
}

TEST(Aig, StructuralHashingMergesDuplicates) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.and2(a, b);
  EXPECT_EQ(g.and2(b, a), x);   // commuted
  EXPECT_EQ(g.and2(a, b), x);   // repeated
  EXPECT_EQ(g.num_ands(), 1u);
  EXPECT_NE(g.and2(!a, b), x);  // different phase is a different node
}

TEST(Aig, DerivedGatesComputeCorrectFunctions) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit s = g.add_pi();
  g.add_po(g.xor2(a, b));
  g.add_po(g.or2(a, b));
  g.add_po(g.mux(s, a, b));
  g.add_po(g.xnor2(a, b));
  for (int m = 0; m < 8; ++m) {
    const bool va = m & 1, vb = m & 2, vs = m & 4;
    const std::vector<bool> in{va, vb, vs};
    const auto out = evaluate(g, in);
    EXPECT_EQ(out[0], va != vb);
    EXPECT_EQ(out[1], va || vb);
    EXPECT_EQ(out[2], vs ? va : vb);
    EXPECT_EQ(out[3], va == vb);
  }
}

TEST(Aig, LevelsAndDepth) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit ab = g.and2(a, b);
  const Lit abc = g.and2(ab, c);
  g.add_po(abc);
  EXPECT_EQ(g.level(ab.node()), 1);
  EXPECT_EQ(g.level(abc.node()), 2);
  EXPECT_EQ(g.depth(), 2);
}

TEST(Aig, CleanupDropsDeadLogicKeepsFunction) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit keep = g.and2(a, b);
  (void)g.and2(!a, b);  // dead
  (void)g.and2(!a, !b); // dead
  g.add_po(keep);
  const Aig h = cleanup_copy(g);
  EXPECT_EQ(h.num_ands(), 1u);
  EXPECT_EQ(h.num_pis(), 2u);
  EXPECT_TRUE(equal_by_simulation(g, h));
}

TEST(Aig, MffcOfChainIsWholeChain) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.and2(a, b);
  const Lit y = g.and2(x, c);
  g.add_po(y);
  EXPECT_EQ(g.mffc_size(y.node()), 2);
  EXPECT_EQ(g.mffc_size(x.node()), 1);
}

TEST(Aig, MffcStopsAtSharedNodes) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.and2(a, b);      // shared
  const Lit y = g.and2(x, c);
  const Lit z = g.and2(x, !c);
  g.add_po(y);
  g.add_po(z);
  EXPECT_EQ(g.mffc_size(y.node()), 1);  // x survives via z
  const auto mffc = mffc_nodes(g, y.node());
  EXPECT_EQ(mffc.size(), 1u);
  EXPECT_EQ(mffc[0], y.node());
}

TEST(Aig, MffcWalkerCoversWholeChainAndForgetsOldWalks) {
  // A single-output chain: the root's MFFC is every AND, the cone that made
  // list-scanned counters quadratic.
  Aig chain;
  Lit acc = chain.add_pi();
  for (int i = 0; i < 3000; ++i) acc = chain.and2(acc, chain.add_pi());
  chain.add_po(acc);
  MffcWalker walker;
  EXPECT_EQ(walker.walk(chain, acc.node()), 3000);
  EXPECT_EQ(walker.nodes().front(), acc.node());
  EXPECT_TRUE(walker.contains(acc.node() - 2));  // an AND two links down

  // A later walk on a smaller graph must not see the chain's marks.
  Aig small;
  const Lit a = small.add_pi();
  const Lit b = small.add_pi();
  const Lit x = small.and2(a, b);
  small.add_po(x);
  EXPECT_EQ(walker.walk(small, x.node()), 1);
  EXPECT_TRUE(walker.contains(x.node()));
  EXPECT_FALSE(walker.contains(acc.node() - 2));
  EXPECT_EQ(walker.walk(small, a.node()), 0);  // PIs own no cone
  EXPECT_FALSE(walker.contains(x.node()));
}

TEST(Aig, IdenticalIsNodeForNode) {
  const Aig g = random_aig(6, 60, 9);
  const Aig copy = g;
  EXPECT_TRUE(identical(g, copy));
  EXPECT_EQ(identity_hash(g), identity_hash(copy));

  // Same function, same structural hash, different node order.
  const auto build = [](bool swap) {
    Aig h;
    const Lit a = h.add_pi();
    const Lit b = h.add_pi();
    const Lit c = h.add_pi();
    const Lit x = swap ? h.and2(b, c) : h.and2(a, b);
    const Lit y = swap ? h.and2(a, b) : h.and2(b, c);
    h.add_po(swap ? h.and2(y, !x) : h.and2(x, !y));
    return h;
  };
  EXPECT_FALSE(identical(build(false), build(true)));
  EXPECT_NE(identity_hash(build(false)), identity_hash(build(true)));

  Aig extra_po = g;
  extra_po.add_po(kTrue);
  EXPECT_FALSE(identical(g, extra_po));
}

TEST(Window, ReconvCutIsACut) {
  const Aig g = random_aig(8, 120, 42);
  for (std::uint32_t n : g.live_ands()) {
    const auto leaves = reconv_cut(g, n, 8);
    EXPECT_LE(leaves.size(), 8u);
    // collect_cone CSAT_CHECKs that the leaves form a cut.
    const auto cone = collect_cone(g, n, leaves);
    EXPECT_FALSE(cone.empty());
    EXPECT_EQ(cone.back(), n);
  }
}

TEST(Window, DivisorsExcludeMffcAndStayBelowRoot) {
  const Aig g = random_aig(6, 80, 7);
  const FanoutIndex fanouts(g);
  for (std::uint32_t n : g.live_ands()) {
    const auto leaves = reconv_cut(g, n, 6);
    const auto mffc = mffc_nodes(g, n);
    const auto divs = collect_divisors(g, n, leaves, fanouts, 50);
    for (std::uint32_t d : divs) {
      EXPECT_EQ(std::count(mffc.begin(), mffc.end(), d), 0);
      if (g.is_and(d)) { EXPECT_LT(g.level(d), g.level(n)); }
    }
  }
}

TEST(Simulate, ConeTtMatchesEvaluation) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit f = g.or2(g.and2(a, b), g.and2(!b, c));
  g.add_po(f);
  const std::vector<std::uint32_t> leaves{a.node(), b.node(), c.node()};
  const auto t = cone_tt(g, f, leaves);
  for (int m = 0; m < 8; ++m) {
    const std::vector<bool> in{(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
    EXPECT_EQ(((t >> m) & 1) != 0, evaluate(g, in)[0]) << m;
  }
}

/// Value of \p n on one assignment of the cut \p leaves (leaf i = bit i of
/// \p minterm), by plain recursion.
bool eval_over_leaves(const Aig& g, std::uint32_t n,
                      const std::vector<std::uint32_t>& leaves,
                      std::uint64_t minterm) {
  for (std::size_t i = 0; i < leaves.size(); ++i)
    if (leaves[i] == n) return ((minterm >> i) & 1) != 0;
  if (n == 0) return false;
  const Lit f0 = g.fanin0(n);
  const Lit f1 = g.fanin1(n);
  return (eval_over_leaves(g, f0.node(), leaves, minterm) != f0.is_compl()) &&
         (eval_over_leaves(g, f1.node(), leaves, minterm) != f1.is_compl());
}

TEST(Simulate, ConeBitsMatchesPerMintermEvaluation) {
  for (int seed = 0; seed < 4; ++seed) {
    const Aig g = random_aig(8, 80, 60 + seed);
    for (std::uint32_t n : g.live_ands()) {
      for (int k = 2; k <= 6; k += 2) {
        auto leaves = reconv_cut(g, n, k);
        if (seed % 2 == 1) std::reverse(leaves.begin(), leaves.end());
        const std::uint64_t bits = cone_bits(g, Lit::make(n, true), leaves);
        for (std::uint64_t m = 0; m < (1ULL << leaves.size()); ++m)
          ASSERT_EQ(((bits >> m) & 1) != 0,
                    !eval_over_leaves(g, n, leaves, m))
              << "node " << n << " k " << k << " minterm " << m;
        if (leaves.size() < 6) {  // nothing above the table
          ASSERT_EQ(bits >> (1u << leaves.size()), 0u);
        }
      }
    }
  }
}

TEST(Simulate, EqualBySimulationDetectsDifference) {
  Aig g1, g2;
  {
    const Lit a = g1.add_pi();
    const Lit b = g1.add_pi();
    g1.add_po(g1.and2(a, b));
  }
  {
    const Lit a = g2.add_pi();
    const Lit b = g2.add_pi();
    g2.add_po(g2.or2(a, b));
  }
  EXPECT_FALSE(equal_by_simulation(g1, g2));
}

class AigerRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(AigerRoundTrip, AsciiAndBinaryPreserveFunction) {
  const Aig g = random_aig(6 + GetParam() % 5, 40 + 17 * GetParam(),
                           900 + GetParam(), 3);
  for (const bool binary : {false, true}) {
    std::stringstream ss;
    if (binary)
      write_aiger_binary(g, ss);
    else
      write_aiger_ascii(g, ss);
    const Aig h = read_aiger(ss);
    EXPECT_EQ(h.num_pis(), g.num_pis());
    EXPECT_EQ(h.num_pos(), g.num_pos());
    EXPECT_TRUE(equal_by_simulation(g, h)) << (binary ? "binary" : "ascii");
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, AigerRoundTrip, ::testing::Range(0, 8));

/// Round-trips \p g through both AIGER encodings and checks shape +
/// function preservation (the PR 9 edge-case battery below shares it).
void expect_roundtrip(const Aig& g, const char* tag) {
  for (const bool binary : {false, true}) {
    std::stringstream ss;
    if (binary)
      write_aiger_binary(g, ss);
    else
      write_aiger_ascii(g, ss);
    const Aig h = read_aiger(ss);
    EXPECT_EQ(h.num_pis(), g.num_pis()) << tag;
    EXPECT_EQ(h.num_pos(), g.num_pos()) << tag;
    EXPECT_TRUE(equal_by_simulation(g, h))
        << tag << (binary ? " (binary)" : " (ascii)");
  }
}

TEST(AigerRoundTripEdgeCases, ConstantDrivenPos) {
  // POs driven by the constant node, both polarities, alone and mixed with
  // real logic — strash folding routinely produces these (e.g. a miter of
  // structurally identical halves collapses to constant false).
  {
    Aig g;
    g.add_pi();  // a PI the constant PO ignores
    g.add_po(kFalse);
    expect_roundtrip(g, "const-false po");
  }
  {
    Aig g;
    g.add_pi();
    g.add_po(kTrue);
    expect_roundtrip(g, "const-true po");
  }
  {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    g.add_po(g.and2(a, b));
    g.add_po(kFalse);
    g.add_po(kTrue);
    expect_roundtrip(g, "mixed const + logic pos");
  }
}

TEST(AigerRoundTripEdgeCases, DanglingNodesSurviveOrDropCleanly) {
  // ANDs outside every PO cone: the writer renumbers live nodes, so the
  // round-tripped circuit must keep the function even though dangling ids
  // shift or disappear.
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit live = g.and2(a, b);
  g.and2(live, c);      // dangling: never referenced by a PO
  g.and2(!a, !c);       // dangling
  g.add_po(live);
  EXPECT_GT(g.num_ands(), g.num_live_ands());
  expect_roundtrip(g, "dangling ands");
}

TEST(AigerRoundTripEdgeCases, ZeroPiCircuits) {
  // No inputs at all: every PO is necessarily constant. The header's I
  // field is 0 and the simulation-equivalence check runs on the single
  // empty input pattern.
  {
    Aig g;
    g.add_po(kTrue);
    expect_roundtrip(g, "zero-pi single const po");
  }
  {
    Aig g;
    g.add_po(kFalse);
    g.add_po(kTrue);
    g.add_po(kFalse);
    expect_roundtrip(g, "zero-pi multiple pos");
  }
}

TEST(AigerRoundTripEdgeCases, ZeroPoCircuits) {
  // Logic but no outputs: legal AIGER (O = 0); everything is dead.
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  g.and2(a, b);
  expect_roundtrip(g, "zero-po");
}

TEST(AigerErrors, RejectsMalformedInputs) {
  const auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return read_aiger(ss);
  };
  EXPECT_THROW(parse("not_aiger 1 2 3"), AigerError);
  EXPECT_THROW(parse("aag 1 1 1 1 0\n2\n"), AigerError);       // latches
  EXPECT_THROW(parse("aag 1 0 0 0 5\n"), AigerError);          // bad counts
  EXPECT_THROW(parse("aag 3 1 0 1 1\n2\n6\n6 8 2\n"), AigerError);  // fwd ref
  EXPECT_THROW(parse("aig 2 1 0 1 1\n6\n"), AigerError);       // truncated binary
}

TEST(AigerErrors, MissingFileThrows) {
  EXPECT_THROW(read_aiger_file("/nonexistent/x.aig"), AigerError);
}

}  // namespace
}  // namespace csat::aig
