// Tests for the workload generators: arithmetic circuits are checked
// against integer semantics, miters against satisfiability ground truth via
// the solver, and suites for determinism and composition.

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "aig/structural_hash.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "gen/arith.h"
#include "gen/miter.h"
#include "gen/random_circuit.h"
#include "gen/suite.h"
#include "sat/solver.h"

namespace csat::gen {
namespace {

using aig::Aig;
using aig::Lit;

/// Evaluates circuit g on integer inputs packed little-endian over the PI
/// words, returning the PO bits as an integer.
std::uint64_t eval_int(const Aig& g, std::uint64_t input_bits) {
  std::vector<bool> in(g.num_pis());
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = (input_bits >> i) & 1;
  const auto out = evaluate(g, in);
  std::uint64_t r = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i]) r |= 1ULL << i;
  return r;
}

sat::Status solve_circuit(const Aig& g) {
  const auto enc = cnf::tseitin_encode(g);
  if (enc.trivially_sat) return sat::Status::kSat;
  if (enc.trivially_unsat) return sat::Status::kUnsat;
  return sat::solve_cnf(enc.cnf).status;
}

TEST(Arith, AddersComputeSums) {
  for (const bool kogge : {false, true}) {
    Aig g;
    const Word a = input_word(g, 4);
    const Word b = input_word(g, 4);
    const Word s = kogge ? kogge_stone_add(g, a, b, aig::kFalse, true)
                         : ripple_carry_add(g, a, b, aig::kFalse, true);
    ASSERT_EQ(s.size(), 5u);
    for (Lit l : s) g.add_po(l);
    for (std::uint64_t x = 0; x < 16; ++x)
      for (std::uint64_t y = 0; y < 16; ++y)
        EXPECT_EQ(eval_int(g, x | (y << 4)), x + y) << (kogge ? "ks" : "rca");
  }
}

TEST(Arith, AdderArchitecturesAreEquivalent) {
  for (const int w : {3, 6, 12}) {
    Aig g1, g2;
    {
      const Word a = input_word(g1, w), b = input_word(g1, w);
      for (Lit l : ripple_carry_add(g1, a, b, aig::kFalse, true)) g1.add_po(l);
    }
    {
      const Word a = input_word(g2, w), b = input_word(g2, w);
      for (Lit l : kogge_stone_add(g2, a, b, aig::kFalse, true)) g2.add_po(l);
    }
    EXPECT_TRUE(equal_by_simulation(g1, g2)) << w;
  }
}

TEST(Arith, SubtractTwoComplement) {
  Aig g;
  const Word a = input_word(g, 5);
  const Word b = input_word(g, 5);
  for (Lit l : subtract(g, a, b)) g.add_po(l);
  for (std::uint64_t x : {0ULL, 3ULL, 17ULL, 31ULL})
    for (std::uint64_t y : {0ULL, 1ULL, 16ULL, 31ULL})
      EXPECT_EQ(eval_int(g, x | (y << 5)), (x - y) & 31);
}

TEST(Arith, MultipliersComputeProducts) {
  for (const bool shift_add : {false, true}) {
    Aig g;
    const Word a = input_word(g, 3);
    const Word b = input_word(g, 3);
    const Word p = shift_add ? shift_add_multiply(g, a, b) : array_multiply(g, a, b);
    ASSERT_EQ(p.size(), 6u);
    for (Lit l : p) g.add_po(l);
    for (std::uint64_t x = 0; x < 8; ++x)
      for (std::uint64_t y = 0; y < 8; ++y)
        EXPECT_EQ(eval_int(g, x | (y << 3)), x * y);
  }
}

TEST(Arith, CommutedMultipliersAreEquivalent) {
  Aig g1, g2;
  {
    const Word a = input_word(g1, 5), b = input_word(g1, 5);
    for (Lit l : array_multiply(g1, a, b)) g1.add_po(l);
  }
  {
    const Word a = input_word(g2, 5), b = input_word(g2, 5);
    for (Lit l : shift_add_multiply(g2, b, a)) g2.add_po(l);
  }
  EXPECT_TRUE(equal_by_simulation(g1, g2));
}

TEST(Arith, ComparatorsAndParity) {
  Aig g;
  const Word a = input_word(g, 4);
  const Word b = input_word(g, 4);
  g.add_po(equal(g, a, b));
  g.add_po(less_than(g, a, b));
  g.add_po(parity(g, a));
  for (std::uint64_t x = 0; x < 16; ++x)
    for (std::uint64_t y = 0; y < 16; ++y) {
      const std::uint64_t out = eval_int(g, x | (y << 4));
      EXPECT_EQ((out >> 0) & 1, x == y ? 1u : 0u);
      EXPECT_EQ((out >> 1) & 1, x < y ? 1u : 0u);
      EXPECT_EQ((out >> 2) & 1,
                static_cast<std::uint64_t>(__builtin_popcountll(x) & 1));
    }
}

TEST(Arith, AluOpcodes) {
  Aig g;
  const Word a = input_word(g, 4);
  const Word b = input_word(g, 4);
  const Word op = input_word(g, 3);
  for (Lit l : alu(g, a, b, op)) g.add_po(l);
  Rng rng(3);
  for (int iter = 0; iter < 60; ++iter) {
    const std::uint64_t x = rng.next_below(16), y = rng.next_below(16);
    for (std::uint64_t o = 0; o < 6; ++o) {
      const std::uint64_t got = eval_int(g, x | (y << 4) | (o << 8));
      std::uint64_t want = 0;
      switch (o) {
        case 0: want = (x + y) & 15; break;
        case 1: want = (x - y) & 15; break;
        case 2: want = x & y; break;
        case 3: want = x | y; break;
        case 4: want = x ^ y; break;
        case 5: want = x < y ? 1 : 0; break;
      }
      EXPECT_EQ(got, want) << "op=" << o << " x=" << x << " y=" << y;
    }
  }
}

TEST(Arith, MuxTreeSelects) {
  Aig g;
  std::vector<Word> data;
  for (int i = 0; i < 4; ++i) data.push_back(input_word(g, 2));
  const Word sel = input_word(g, 2);
  for (Lit l : mux_tree(g, data, sel)) g.add_po(l);
  Rng rng(8);
  for (int iter = 0; iter < 40; ++iter) {
    const std::uint64_t bits = rng.next_below(1ULL << 10);
    const std::uint64_t s = (bits >> 8) & 3;
    EXPECT_EQ(eval_int(g, bits), (bits >> (2 * s)) & 3);
  }
}

TEST(Miter, EquivalentPairIsUnsat) {
  Aig g1, g2;
  {
    const Word a = input_word(g1, 4), b = input_word(g1, 4);
    for (Lit l : ripple_carry_add(g1, a, b, aig::kFalse, true)) g1.add_po(l);
  }
  {
    const Word a = input_word(g2, 4), b = input_word(g2, 4);
    for (Lit l : kogge_stone_add(g2, a, b, aig::kFalse, true)) g2.add_po(l);
  }
  EXPECT_EQ(solve_circuit(make_miter(g1, g2)), sat::Status::kUnsat);
}

TEST(Miter, InjectedBugIsSat) {
  Rng rng(15);
  int observable = 0;
  for (int i = 0; i < 10; ++i) {
    Aig g;
    const Word a = input_word(g, 4), b = input_word(g, 4);
    for (Lit l : array_multiply(g, a, b)) g.add_po(l);
    const Aig buggy = inject_bug(g, rng.next_u64());
    if (solve_circuit(make_miter(g, buggy)) == sat::Status::kSat) ++observable;
  }
  // A random single mutation is almost always observable in a multiplier.
  EXPECT_GE(observable, 8);
}

TEST(Miter, StuckAtFaultIsUsuallyTestable) {
  Aig g;
  const Word a = input_word(g, 4), b = input_word(g, 4);
  for (Lit l : ripple_carry_add(g, a, b, aig::kFalse, true)) g.add_po(l);
  Rng rng(23);
  const auto live = g.live_ands();
  int testable = 0;
  for (int i = 0; i < 10; ++i) {
    const auto site = live[rng.next_below(live.size())];
    const Aig faulty = inject_stuck_at(g, site, rng.next_bool());
    if (solve_circuit(make_miter(g, faulty)) == sat::Status::kSat) ++testable;
  }
  EXPECT_GE(testable, 7);
}

TEST(RandomCircuit, DeterministicAndShaped) {
  RandomAigParams p;
  p.num_pis = 10;
  p.num_gates = 200;
  p.xor_fraction = 0.5;
  const Aig g1 = random_aig(p, 99);
  const Aig g2 = random_aig(p, 99);
  EXPECT_EQ(g1.num_nodes(), g2.num_nodes());
  EXPECT_TRUE(equal_by_simulation(g1, g2));
  EXPECT_EQ(g1.num_pis(), 10u);
  EXPECT_GE(g1.num_ands(), 200u);  // xor composites add extra ANDs
}

TEST(Suite, DeterministicComposition) {
  SuiteParams p;
  p.count = 12;
  p.seed = 5;
  const auto s1 = make_suite(p);
  const auto s2 = make_suite(p);
  ASSERT_EQ(s1.size(), 12u);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].name, s2[i].name);
    EXPECT_EQ(s1[i].circuit.num_nodes(), s2[i].circuit.num_nodes());
    EXPECT_EQ(s1[i].circuit.num_pos(), 1u);  // CSAT: single miter output
  }
}

TEST(Suite, MixesLecAndAtpg) {
  SuiteParams p;
  p.count = 30;
  p.seed = 11;
  const auto s = make_suite(p);
  int lec = 0, atpg = 0;
  for (const auto& inst : s)
    (inst.kind == Instance::Kind::kLec ? lec : atpg)++;
  EXPECT_GT(lec, 0);
  EXPECT_GT(atpg, 0);
}

TEST(Suite, GateFreeDrawsFallBackInsteadOfAborting) {
  // A random_xor draw can collapse to wires with no live AND. Instance 350
  // of seed 5 is such an ATPG draw (its fault site falls back to a PI) and
  // instance 1957 of seed 2 such a buggy LEC draw (its bug falls back to a
  // complemented PO). Both used to abort the process.
  const struct {
    std::uint64_t seed;
    int index;
    Instance::Kind kind;
  } cases[] = {{5, 350, Instance::Kind::kAtpg}, {2, 1957, Instance::Kind::kLec}};
  for (const auto& c : cases) {
    SuiteParams p;
    p.count = c.index + 1;
    p.seed = c.seed;
    const Instance single = make_suite_instance(p, c.index);
    const auto suite = make_suite(p);
    const Instance& full = suite.back();
    EXPECT_EQ(single.kind, c.kind) << single.name;
    EXPECT_NE(single.name.find("_rnd_"), std::string::npos) << single.name;
    EXPECT_EQ(single.name, full.name);
    EXPECT_EQ(single.circuit.num_nodes(), full.circuit.num_nodes());
    EXPECT_EQ(aig::structural_hash(single.circuit),
              aig::structural_hash(full.circuit))
        << single.name;
    EXPECT_NE(solve_circuit(single.circuit), sat::Status::kUnknown)
        << single.name;
  }
}

TEST(SuiteDeathTest, AllZeroWeightsFailInsteadOfDrawingMultipliers) {
  SuiteParams p;
  p.count = 2;
  for (FamilyRange* f :
       {&p.multiplier, &p.adder, &p.alu, &p.parity, &p.random_xor})
    f->weight = 0.0;
  EXPECT_DEATH((void)make_suite(p), "every family weight is 0");
}

TEST(Suite, TrainingInstancesAreSolvable) {
  // Every training instance must be solvable quickly — they feed the RL
  // reward oracle thousands of times.
  const auto suite = make_training_suite(8, 3);
  for (const auto& inst : suite) {
    const auto enc = cnf::tseitin_encode(inst.circuit);
    sat::Limits lim;
    lim.max_conflicts = 200000;
    const auto r = sat::solve_cnf(enc.cnf, sat::SolverConfig::kissat_like(), lim);
    EXPECT_NE(r.status, sat::Status::kUnknown) << inst.name;
  }
}

}  // namespace
}  // namespace csat::gen
