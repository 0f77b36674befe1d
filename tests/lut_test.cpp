// Tests for the LUT layer: netlist semantics, mapping legality and
// equivalence (simulation + SAT verdict preservation end to end), the
// branching-cost objective, and the ISOP CNF encoder's clause accounting.

#include <gtest/gtest.h>

#include <thread>

#include "aig/simulate.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "gen/arith.h"
#include "gen/miter.h"
#include "gen/random_circuit.h"
#include "gen/suite.h"
#include "lut/lut_network.h"
#include "lut/lut_to_cnf.h"
#include "lut/mapper.h"
#include "sat/solver.h"
#include "tt/isop.h"

namespace csat::lut {
namespace {

using aig::Aig;

TEST(LutNetwork, BuildAndEvaluate) {
  LutNetwork net;
  const auto a = net.add_pi();
  const auto b = net.add_pi();
  const auto c = net.add_pi();
  // XOR3 in a single LUT.
  const auto x = net.add_lut({a, b, c}, 0x96);
  net.add_po(x, false);
  net.add_po(x, true);
  net.add_po_const(true);
  EXPECT_EQ(net.num_luts(), 1u);
  EXPECT_EQ(net.depth(), 1);
  EXPECT_EQ(net.num_edges(), 3u);
  const auto out = net.evaluate({true, true, false});
  EXPECT_FALSE(out[0]);
  EXPECT_TRUE(out[1]);
  EXPECT_TRUE(out[2]);
}

/// Maps and cross-checks functional equivalence on all 2^pis inputs.
void check_mapping_exhaustive(const Aig& g, const MapperParams& params) {
  const auto mapped = map_to_luts(g, params);
  ASSERT_EQ(mapped.netlist.num_pis(), g.num_pis());
  ASSERT_EQ(mapped.netlist.num_pos(), g.num_pos());
  for (std::uint32_t n = 0; n < mapped.netlist.num_nodes(); ++n) {
    if (!mapped.netlist.is_pi(n)) {
      ASSERT_LE(mapped.netlist.fanins(n).size(),
                static_cast<std::size_t>(params.lut_size));
    }
  }
  CSAT_CHECK(g.num_pis() <= 14);
  std::vector<bool> in(g.num_pis());
  for (std::uint64_t m = 0; m < (1ULL << g.num_pis()); ++m) {
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = (m >> i) & 1;
    ASSERT_EQ(evaluate(g, in), mapped.netlist.evaluate(in)) << "input " << m;
  }
}

TEST(Mapper, ExhaustiveEquivalenceOnAdder) {
  Aig g;
  const auto a = gen::input_word(g, 4);
  const auto b = gen::input_word(g, 4);
  for (aig::Lit l : gen::ripple_carry_add(g, a, b, aig::kFalse, true))
    g.add_po(l);
  for (const auto cost : {CostKind::kArea, CostKind::kBranching}) {
    MapperParams p;
    p.cost = cost;
    check_mapping_exhaustive(g, p);
  }
}

TEST(Mapper, ExhaustiveEquivalenceOnParityAndMux) {
  Aig g;
  const auto a = gen::input_word(g, 9);
  g.add_po(gen::parity(g, a));
  MapperParams p;
  p.cost = CostKind::kBranching;
  check_mapping_exhaustive(g, p);
}

class MapperProperty : public ::testing::TestWithParam<int> {};

TEST_P(MapperProperty, RandomAigsStayEquivalentBySimulation) {
  gen::RandomAigParams rp;
  rp.num_pis = 10;
  rp.num_gates = 200;
  rp.num_pos = 4;
  rp.xor_fraction = 0.3;
  const Aig g = gen::random_aig(rp, 600 + GetParam());
  for (const auto cost : {CostKind::kArea, CostKind::kBranching}) {
    MapperParams p;
    p.cost = cost;
    const auto mapped = map_to_luts(g, p);
    // Compare 64 random patterns x 8 rounds on all POs.
    Rng rng(42);
    std::vector<std::uint64_t> pi_words(g.num_pis());
    for (int round = 0; round < 8; ++round) {
      for (auto& w : pi_words) w = rng.next_u64();
      const auto va = aig::simulate_words(g, pi_words);
      const auto vl = mapped.netlist.simulate_words(pi_words);
      for (std::size_t i = 0; i < g.num_pos(); ++i) {
        const aig::Lit po = g.pos()[i];
        const std::uint64_t wa =
            va[po.node()] ^ (po.is_compl() ? ~0ULL : 0ULL);
        const auto& lpo = mapped.netlist.pos()[i];
        ASSERT_EQ(lpo.kind, LutNetwork::Po::Kind::kNode);
        const std::uint64_t wl =
            vl[lpo.node] ^ (lpo.complemented ? ~0ULL : 0ULL);
        ASSERT_EQ(wa, wl) << "po " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperProperty, ::testing::Range(0, 8));

TEST(Mapper, BranchingCostObjectiveIsRespected) {
  // The branching-cost mapper must never produce a netlist with more total
  // branching complexity than the area mapper on the same circuit.
  for (int seed = 0; seed < 6; ++seed) {
    gen::RandomAigParams rp;
    rp.num_pis = 10;
    rp.num_gates = 300;
    rp.xor_fraction = 0.4;
    const Aig g = gen::random_aig(rp, 7100 + seed);
    MapperParams pa;
    pa.cost = CostKind::kArea;
    MapperParams pb;
    pb.cost = CostKind::kBranching;
    const auto ma = map_to_luts(g, pa);
    const auto mb = map_to_luts(g, pb);
    EXPECT_LE(mb.total_branching, ma.total_branching) << "seed " << seed;
  }
}

TEST(Mapper, DepthConstraintHolds) {
  for (int seed = 0; seed < 6; ++seed) {
    gen::RandomAigParams rp;
    rp.num_pis = 8;
    rp.num_gates = 150;
    const Aig g = gen::random_aig(rp, 8200 + seed);
    for (const auto cost : {CostKind::kArea, CostKind::kBranching}) {
      MapperParams p;
      p.cost = cost;
      const auto m = map_to_luts(g, p);
      EXPECT_LE(m.depth, m.target_depth);
    }
  }
}

TEST(Mapper, ConstantAndPassthroughPos) {
  Aig g;
  const aig::Lit a = g.add_pi();
  (void)g.add_pi();
  g.add_po(aig::kTrue);
  g.add_po(aig::kFalse);
  g.add_po(a);    // PI passthrough
  g.add_po(!a);   // complemented passthrough
  const auto m = map_to_luts(g, MapperParams{});
  const auto out = m.netlist.evaluate({true, false});
  EXPECT_EQ(out, (std::vector<bool>{true, false, true, false}));
}

TEST(LutToCnf, ClauseCountEqualsBranchingPlusGoal) {
  for (int seed = 0; seed < 5; ++seed) {
    gen::RandomAigParams rp;
    rp.num_pis = 8;
    rp.num_gates = 120;
    rp.xor_fraction = 0.3;
    const Aig g = gen::random_aig(rp, 9300 + seed);
    MapperParams p;
    p.cost = CostKind::kBranching;
    const auto m = map_to_luts(g, p);
    const auto enc = lut_to_cnf(m.netlist);
    if (enc.trivially_sat || enc.trivially_unsat) continue;
    EXPECT_EQ(static_cast<std::int64_t>(enc.cnf.num_clauses()),
              m.total_branching + 1);
  }
}

TEST(LutToCnf, VerdictMatchesTseitinOnMiters) {
  // End-to-end: the mapped CNF must have the same SAT verdict as the
  // baseline Tseitin CNF on real LEC/ATPG miters.
  const auto suite = gen::make_training_suite(10, 17);
  for (const auto& inst : suite) {
    const auto base = cnf::tseitin_encode(inst.circuit);
    const auto base_status = base.trivially_sat   ? sat::Status::kSat
                             : base.trivially_unsat ? sat::Status::kUnsat
                                                    : sat::solve_cnf(base.cnf).status;
    for (const auto cost : {CostKind::kArea, CostKind::kBranching}) {
      MapperParams p;
      p.cost = cost;
      const auto m = map_to_luts(inst.circuit, p);
      const auto enc = lut_to_cnf(m.netlist);
      const auto status = enc.trivially_sat   ? sat::Status::kSat
                          : enc.trivially_unsat ? sat::Status::kUnsat
                                                : sat::solve_cnf(enc.cnf).status;
      EXPECT_EQ(status, base_status) << inst.name;
    }
  }
}

TEST(LutToCnf, WitnessSatisfiesCircuit) {
  const auto suite = gen::make_training_suite(12, 29);
  int sat_seen = 0;
  for (const auto& inst : suite) {
    const auto m = map_to_luts(inst.circuit, MapperParams{});
    const auto enc = lut_to_cnf(m.netlist);
    if (enc.trivially_sat || enc.trivially_unsat) continue;
    const auto r = sat::solve_cnf(enc.cnf);
    if (r.status != sat::Status::kSat) continue;
    ++sat_seen;
    const auto w = witness_from_model(m.netlist, enc, r.model);
    bool some_po = false;
    for (bool po : evaluate(inst.circuit, w)) some_po |= po;
    EXPECT_TRUE(some_po) << inst.name;
  }
  EXPECT_GT(sat_seen, 0);
}

TEST(CachedBranchingCost, MatchesDirectComputation) {
  Rng rng(5);
  for (int n = 2; n <= 6; ++n)
    for (int i = 0; i < 30; ++i) {
      std::uint64_t f = 0;
      for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m)
        if (rng.next_bool()) f |= std::uint64_t{1} << m;
      EXPECT_EQ(cached_branching_cost(f, n), tt::branching_cost(f, n));
    }
}

TEST(CachedBranchingCost, SixInputTablesDoNotAliasSmallerOnes) {
  // 5-input parity and this 6-input table once shared a memo key, so the
  // first one asked answered both.
  const std::uint64_t parity5 = 0x96696996ULL;
  const std::uint64_t other6 = parity5 ^ (std::uint64_t{3} << 58);
  const int want5 = tt::branching_cost(parity5, 5);
  const int want6 = tt::branching_cost(other6, 6);
  ASSERT_EQ(want5, 32);
  ASSERT_NE(want5, want6);
  // The memo is per thread, so a fresh thread per order starts it empty.
  for (const bool five_first : {true, false}) {
    int got5 = 0;
    int got6 = 0;
    std::thread([&] {
      if (five_first) {
        got5 = cached_branching_cost(parity5, 5);
        got6 = cached_branching_cost(other6, 6);
      } else {
        got6 = cached_branching_cost(other6, 6);
        got5 = cached_branching_cost(parity5, 5);
      }
    }).join();
    EXPECT_EQ(got5, want5) << (five_first ? "5 first" : "6 first");
    EXPECT_EQ(got6, want6) << (five_first ? "5 first" : "6 first");
  }
}

TEST(Mapper, XorChainShowsBranchingAdvantage) {
  // An XOR-rich circuit is where the cost-customized mapper should shine:
  // packing XORs into LUTs differently changes total branching a lot.
  Aig g;
  const auto a = gen::input_word(g, 16);
  g.add_po(gen::parity(g, a));
  MapperParams pa;
  pa.cost = CostKind::kArea;
  MapperParams pb;
  pb.cost = CostKind::kBranching;
  const auto ma = map_to_luts(g, pa);
  const auto mb = map_to_luts(g, pb);
  EXPECT_LE(mb.total_branching, ma.total_branching);
  EXPECT_GT(mb.num_luts, 0u);
}

}  // namespace
}  // namespace csat::lut
