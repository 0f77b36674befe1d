// Tests for the synthesis engine: structure generators (factoring /
// resynthesis), dry-run gain accounting, the four restructuring passes and
// SAT sweeping.
// Equivalence of every pass is checked two ways: bit-parallel random
// simulation, and exact SAT miters solved by our own CDCL solver.

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "gen/arith.h"
#include "gen/miter.h"
#include "gen/random_circuit.h"
#include "sat/solver.h"
#include "synth/balance.h"
#include "synth/builder.h"
#include "synth/recipe.h"
#include "synth/refactor.h"
#include "synth/replace.h"
#include "synth/resub.h"
#include "synth/resyn.h"
#include "synth/rewrite.h"
#include "synth/sweep.h"

namespace csat::synth {
namespace {

using aig::Aig;
using aig::Lit;

/// Exact equivalence via a SAT miter (UNSAT <=> equivalent).
bool equal_by_sat(const Aig& a, const Aig& b) {
  const Aig m = gen::make_miter(a, b);
  const auto enc = cnf::tseitin_encode(m);
  if (enc.trivially_unsat) return true;
  if (enc.trivially_sat) return false;
  return sat::solve_cnf(enc.cnf).status == sat::Status::kUnsat;
}

/// A random table over \p n inputs, drawn one minterm at a time.
std::uint64_t random_tt(int n, Rng& rng) {
  std::uint64_t t = 0;
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m)
    if (rng.next_bool()) t |= std::uint64_t{1} << m;
  return t;
}

TEST(Resyn, SynthFuncRealizesTheFunction) {
  Rng rng(21);
  for (int n = 1; n <= 6; ++n) {
    for (int iter = 0; iter < 20; ++iter) {
      const auto f = random_tt(n, rng);
      Aig g;
      std::vector<Lit> leaves;
      std::vector<std::uint32_t> leaf_nodes;
      for (int i = 0; i < n; ++i) {
        leaves.push_back(g.add_pi());
        leaf_nodes.push_back(leaves.back().node());
      }
      RealBuilder b(g);
      const Lit out = synth_func(b, f, leaves);
      g.add_po(out);
      EXPECT_EQ(aig::cone_tt(g, out, leaf_nodes), f) << "n=" << n;
    }
  }
}

TEST(Resyn, ConstantsAndProjections) {
  Aig g;
  const Lit a = g.add_pi();
  RealBuilder b(g);
  EXPECT_EQ(synth_func(b, 0b00, {&a, 1}), aig::kFalse);
  EXPECT_EQ(synth_func(b, 0b11, {&a, 1}), aig::kTrue);
  EXPECT_EQ(synth_func(b, 0b10, {&a, 1}), a);
  EXPECT_EQ(synth_func(b, 0b01, {&a, 1}), !a);
  EXPECT_EQ(g.num_ands(), 0u);
}

/// Node-for-node equality of two AIGs (same ids, fanins and POs).
void expect_identical(const Aig& a, const Aig& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_pis(), b.num_pis());
  for (std::uint32_t n = 1; n < a.num_nodes(); ++n) {
    ASSERT_EQ(a.is_and(n), b.is_and(n)) << "node " << n;
    if (!a.is_and(n)) continue;
    ASSERT_EQ(a.fanin0(n), b.fanin0(n)) << "node " << n;
    ASSERT_EQ(a.fanin1(n), b.fanin1(n)) << "node " << n;
  }
  ASSERT_EQ(a.pos(), b.pos());
}

TEST(Resyn, ReplayMatchesDirectSynthesis) {
  // Replaying a recorded structure must be indistinguishable from running
  // synth_func on the same builder: same dry-run count, same literal, and a
  // node-for-node identical AIG. Leaves are random literals of a random
  // network (repeats, complements and constants included), so the builders
  // fold calls the recorder could not see.
  Rng rng(77);
  gen::RandomAigParams rp;
  rp.num_pis = 6;
  rp.num_gates = 80;
  rp.xor_fraction = 0.3;
  for (int iter = 0; iter < 300; ++iter) {
    const Aig g = cleanup_copy(gen::random_aig(rp, 500 + iter % 10));
    const int k = 1 + static_cast<int>(rng.next_u64() % 6);
    std::uint64_t bits = rng.next_u64();
    if (iter % 7 == 0) bits &= rng.next_u64() & rng.next_u64();  // sparse
    const std::uint64_t f = bits & tt::word_mask(k);
    std::vector<Lit> leaves;
    for (int i = 0; i < k; ++i) {
      const auto node =
          static_cast<std::uint32_t>(rng.next_u64() % g.num_nodes());
      leaves.push_back(Lit::make(node, rng.next_u64() % 4 == 0));
    }
    if (iter % 5 == 0 && k >= 2) leaves[1] = leaves[0];   // repeated leaf
    if (iter % 11 == 0 && k >= 2) leaves[1] = !leaves[0];  // complementary

    const Structure s = structure_of(f, k);
    {
      CountingBuilder direct(g);
      CountingBuilder replayed(g);
      const Lit want = synth_func(direct, f, leaves);
      const Lit got = replay(replayed, s, leaves);
      ASSERT_EQ(got, want) << "iter " << iter;
      ASSERT_EQ(replayed.new_nodes(), direct.new_nodes()) << "iter " << iter;
    }
    {
      Aig direct_g = g;
      Aig replayed_g = g;
      RealBuilder direct(direct_g);
      RealBuilder replayed(replayed_g);
      const Lit want = synth_func(direct, f, leaves);
      const Lit got = replay(replayed, s, leaves);
      direct_g.add_po(want);
      replayed_g.add_po(got);
      expect_identical(direct_g, replayed_g);
    }
    // Standalone size: nothing to share with an empty network.
    {
      const Aig empty;
      CountingBuilder standalone(empty);
      std::vector<Lit> fresh;
      for (int i = 0; i < k; ++i)
        fresh.push_back(Lit::make((1u << 20) + static_cast<std::uint32_t>(i), false));
      (void)synth_func(standalone, f, fresh);
      ASSERT_EQ(s.size(), standalone.new_nodes()) << "iter " << iter;
    }
  }
}

TEST(Builder, CountingMatchesRealInstantiation) {
  // The dry-run estimate must equal the node count a real build adds when
  // the destination has identical structure (here: the same network).
  Rng rng(31);
  for (int iter = 0; iter < 20; ++iter) {
    gen::RandomAigParams rp;
    rp.num_pis = 6;
    rp.num_gates = 60;
    Aig g = cleanup_copy(gen::random_aig(rp, 1000 + iter));
    const auto f = random_tt(4, rng);
    // Choose 4 distinct nodes as leaves.
    std::vector<std::uint32_t> leaves;
    for (std::uint32_t pi : g.pis())
      if (leaves.size() < 4) leaves.push_back(pi);

    const int predicted = count_new_nodes(g, f, leaves);
    std::vector<Lit> leaf_lits;
    for (auto l : leaves) leaf_lits.push_back(Lit::make(l, false));
    const std::size_t before = g.num_ands();
    RealBuilder rb(g);
    (void)synth_func(rb, f, leaf_lits);
    EXPECT_EQ(static_cast<int>(g.num_ands() - before), predicted);
  }
}

TEST(Replace, MffcBoundedStopsAtBoundary) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.and2(a, b);
  const Lit y = g.and2(x, c);
  g.add_po(y);
  // Full MFFC of y is {y, x}; bounded at x it is just {y}.
  EXPECT_EQ(g.mffc_size(y.node()), 2);
  const std::vector<std::uint32_t> boundary{x.node()};
  EXPECT_EQ(mffc_size_bounded(g, y.node(), boundary), 1);
}

TEST(Replace, ApplyReplacementsRealizesNewFunction) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.and2(a, b);  // replace by OR(a, b)
  g.add_po(x);
  std::unordered_map<std::uint32_t, Replacement> repl;
  Replacement r;
  r.leaves = {a.node(), b.node()};
  r.func = 0b1110;  // OR
  repl.emplace(x.node(), r);
  const Aig out = apply_replacements(g, repl);
  EXPECT_EQ(evaluate(out, {true, false})[0], true);
  EXPECT_EQ(evaluate(out, {false, false})[0], false);
}

struct OpCase {
  const char* name;
  Aig (*apply)(const Aig&);
};

Aig do_rewrite(const Aig& g) { return rewrite(g); }
Aig do_refactor(const Aig& g) { return refactor(g); }
Aig do_balance(const Aig& g) { return balance(g); }
Aig do_resub(const Aig& g) { return resub(g); }
Aig do_sweep(const Aig& g) { return sweep(g); }

class SynthOpEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SynthOpEquivalence, PreservesFunctionOnRandomAigs) {
  const auto [op_index, seed] = GetParam();
  static const OpCase kOps[] = {{"rewrite", do_rewrite},
                                {"refactor", do_refactor},
                                {"balance", do_balance},
                                {"resub", do_resub},
                                {"sweep", do_sweep}};
  const OpCase& op = kOps[op_index];

  gen::RandomAigParams rp;
  rp.num_pis = 8;
  rp.num_gates = 150;
  rp.num_pos = 3;
  rp.xor_fraction = 0.25;
  const Aig g = gen::random_aig(rp, 7000 + seed);
  const Aig h = op.apply(g);
  EXPECT_TRUE(equal_by_simulation(g, h)) << op.name;
  EXPECT_TRUE(equal_by_sat(g, h)) << op.name;
}

INSTANTIATE_TEST_SUITE_P(OpsTimesSeeds, SynthOpEquivalence,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 6)));

TEST(SynthOps, PreserveFunctionOnDatapaths) {
  Aig g;
  {
    const auto a = gen::input_word(g, 4);
    const auto b = gen::input_word(g, 4);
    const auto p = gen::array_multiply(g, a, b);
    for (Lit l : p) g.add_po(l);
  }
  for (const auto op : {SynthOp::kRewrite, SynthOp::kRefactor,
                        SynthOp::kBalance, SynthOp::kResub, SynthOp::kSweep}) {
    const Aig h = apply_op(g, op);
    EXPECT_TRUE(equal_by_simulation(g, h)) << to_string(op);
    EXPECT_TRUE(equal_by_sat(g, h)) << to_string(op);
  }
}

TEST(SynthOps, SizeNeverIncreasesForSizeOps) {
  for (int seed = 0; seed < 5; ++seed) {
    gen::RandomAigParams rp;
    rp.num_pis = 8;
    rp.num_gates = 200;
    rp.xor_fraction = 0.3;
    const Aig g = cleanup_copy(gen::random_aig(rp, 4200 + seed));
    EXPECT_LE(rewrite(g).num_ands(), g.num_ands());
    EXPECT_LE(refactor(g).num_ands(), g.num_ands());
    EXPECT_LE(resub(g).num_ands(), g.num_ands());
  }
}

TEST(SynthOps, RewriteShrinksRedundantLogic) {
  // Build deliberately redundant logic: f = (a&b) | (a&b&c) | (a&b&~c)
  // which collapses to a&b.
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit ab = g.and2(a, b);
  const Lit abc = g.and2(ab, c);
  const Lit abnc = g.and2(ab, !c);
  g.add_po(g.or2(g.or2(ab, abc), abnc));
  const Aig h = refactor(g);
  EXPECT_LT(h.num_ands(), g.num_ands());
  EXPECT_TRUE(equal_by_sat(g, h));
}

TEST(Balance, ReducesDepthOfChains) {
  // A linear AND chain of 15 operands has depth 15; balanced it is 4.
  Aig g;
  Lit acc = g.add_pi();
  for (int i = 0; i < 15; ++i) acc = g.and2(acc, g.add_pi());
  g.add_po(acc);
  ASSERT_EQ(g.depth(), 15);
  const Aig h = balance(g);
  EXPECT_EQ(h.depth(), 4);
  EXPECT_TRUE(equal_by_simulation(g, h));
}

TEST(Resub, RemovesDuplicatedCone) {
  // Two structurally distinct but equivalent cones; resub should collapse
  // one onto the other (0-resub through the shared window).
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit f1 = g.or2(g.and2(a, b), c);
  const Lit f2 = !g.and2(!c, !g.and2(a, b));  // same function, same subnode
  g.add_po(g.and2(f1, g.xor2(f2, g.add_pi())));
  const Aig h = resub(g);
  EXPECT_TRUE(equal_by_sat(g, h));
  EXPECT_LE(h.num_ands(), g.num_ands());
}

TEST(Recipe, ParseAndNames) {
  const auto r = parse_recipe("rw;rf,b rs;end");
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r[0], SynthOp::kRewrite);
  EXPECT_EQ(r[1], SynthOp::kRefactor);
  EXPECT_EQ(r[2], SynthOp::kBalance);
  EXPECT_EQ(r[3], SynthOp::kResub);
  EXPECT_EQ(r[4], SynthOp::kEnd);
  for (const auto op : {SynthOp::kRewrite, SynthOp::kRefactor, SynthOp::kBalance,
                        SynthOp::kResub, SynthOp::kEnd, SynthOp::kSweep})
    EXPECT_EQ(op_from_string(to_string(op)), op);
  EXPECT_FALSE(op_from_string("bogus").has_value());
  // The sweep is recipe vocabulary, not one of the agent's actions, and it
  // closes the normalization prelude.
  EXPECT_GE(static_cast<int>(SynthOp::kSweep), kNumSynthActions);
  EXPECT_EQ(normalization_recipe().back(), SynthOp::kSweep);
}

TEST(Recipe, Compress2ShrinksAndPreserves) {
  Aig g;
  {
    const auto a = gen::input_word(g, 5);
    const auto b = gen::input_word(g, 5);
    const auto s = gen::kogge_stone_add(g, a, b, aig::kFalse, true);
    for (Lit l : s) g.add_po(l);
  }
  const Aig h = apply_recipe(g, compress2_recipe());
  EXPECT_LE(h.num_ands(), g.num_ands());
  EXPECT_TRUE(equal_by_sat(g, h));

  const Aig n = apply_recipe(g, normalization_recipe());
  EXPECT_TRUE(equal_by_sat(g, n));
}

TEST(Recipe, EndStopsProcessing) {
  gen::RandomAigParams rp;
  const Aig g = gen::random_aig(rp, 5);
  const std::vector<SynthOp> recipe{SynthOp::kEnd, SynthOp::kRewrite};
  const Aig h = apply_recipe(g, recipe);
  EXPECT_EQ(h.num_ands(), cleanup_copy(g).num_ands());
}

/// Ripple-carry against Kogge-Stone over \p width bits, with sum bit 1 of
/// the second adder flipped exactly when the first \p rare_bits operand
/// bits of `a` are all 1: satisfiable, but a 2^-rare_bits event that a few
/// words of random simulation miss.
Aig rare_bug_adder_miter(int width, int rare_bits) {
  Aig g;
  const auto a = gen::input_word(g, width);
  const auto b = gen::input_word(g, width);
  const auto s1 = gen::ripple_carry_add(g, a, b, aig::kFalse, true);
  auto s2 = gen::kogge_stone_add(g, a, b, aig::kFalse, true);
  Lit rare = aig::kTrue;
  for (int i = 0; i < rare_bits; ++i) rare = g.and2(rare, a[i]);
  s2[1] = g.xor2(s2[1], rare);
  Lit diff = aig::kFalse;
  for (std::size_t i = 0; i < s1.size(); ++i)
    diff = g.or2(diff, g.xor2(s1[i], s2[i]));
  g.add_po(diff);
  return g;
}

TEST(Sweep, TwoCallsGiveIdenticalResults) {
  gen::RandomAigParams rp;
  rp.num_pis = 10;
  rp.num_gates = 200;
  rp.xor_fraction = 0.3;
  const Aig random = gen::random_aig(rp, 31);
  const Aig equivalent = gen::make_miter(random, apply_recipe(random, compress2_recipe()));
  for (const Aig* g : {&random, &equivalent}) {
    EXPECT_TRUE(aig::identical(sweep(*g), sweep(*g)));
  }
  const Aig adder = gen::make_adder_miter(16);
  const Aig rare = rare_bug_adder_miter(16, 16);
  EXPECT_TRUE(aig::identical(sweep(adder), sweep(adder)));
  EXPECT_TRUE(aig::identical(sweep(rare), sweep(rare)));
}

TEST(Sweep, AdderEquivalenceMiterCollapsesToConstantZero) {
  const Aig g = gen::make_adder_miter(16);
  ASSERT_GT(cleanup_copy(g).num_ands(), 0u);
  const Aig s = sweep(g);
  EXPECT_EQ(s.num_ands(), 0u);
  ASSERT_EQ(s.num_pos(), 1u);
  EXPECT_EQ(s.pos()[0], aig::kFalse);
}

TEST(Sweep, BuggedMiterPoStaysNonConstant) {
  const Aig g = rare_bug_adder_miter(16, 16);
  const Aig s = sweep(g);
  // The sweep ran (the two adders share their carries now) ...
  EXPECT_LT(s.num_ands(), cleanup_copy(g).num_ands());
  // ... and proved nothing false: the PO is still a function of the inputs.
  ASSERT_EQ(s.num_pos(), 1u);
  EXPECT_NE(s.pos()[0].node(), 0u);
  EXPECT_TRUE(equal_by_sat(g, s));
  std::vector<bool> pis(g.num_pis(), false);
  for (int i = 0; i < 16; ++i) pis[i] = true;  // a = 0xffff, b = 0
  EXPECT_TRUE(evaluate(s, pis)[0]);
}

TEST(Sweep, NeverGrowsAndPreservesMultiOutputFunctions) {
  for (int seed = 0; seed < 6; ++seed) {
    gen::RandomAigParams rp;
    rp.num_pis = 8 + seed;
    rp.num_gates = 120;
    rp.num_pos = 3;
    rp.xor_fraction = 0.3;
    const Aig g = gen::random_aig(rp, 900 + seed);
    // Equivalent miters keep every candidate pair undecided by simulation,
    // so the SAT checks run.
    const Aig m = gen::make_miter(g, apply_recipe(g, compress2_recipe()));
    for (const Aig* in : {&g, &m}) {
      const Aig s = sweep(*in);
      EXPECT_LE(s.num_ands(), cleanup_copy(*in).num_ands()) << seed;
      EXPECT_TRUE(equal_by_sat(*in, s)) << seed;
    }
  }
}

}  // namespace
}  // namespace csat::synth
