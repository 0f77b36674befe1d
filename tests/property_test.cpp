// Cross-cutting property suites: parameterized sweeps over LUT sizes,
// solver limits, encoder agreement and suite shapes.
// These complement the per-module unit tests with broader invariants.

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "gen/arith.h"
#include "gen/miter.h"
#include "gen/random_circuit.h"
#include "gen/suite.h"
#include "lut/lut_to_cnf.h"
#include "lut/mapper.h"
#include "sat/solver.h"

namespace csat {
namespace {

using aig::Aig;

// --- LUT-size sweep -----------------------------------------------------------

class LutSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(LutSizeSweep, MappingIsEquivalentForEveryK) {
  const int k = GetParam();
  gen::RandomAigParams rp;
  rp.num_pis = 9;
  rp.num_gates = 140;
  rp.xor_fraction = 0.3;
  const Aig g = gen::random_aig(rp, 4000 + k);
  lut::MapperParams p;
  p.lut_size = k;
  p.cost = lut::CostKind::kBranching;
  const auto m = lut::map_to_luts(g, p);
  for (std::uint32_t n = 0; n < m.netlist.num_nodes(); ++n) {
    if (m.netlist.is_pi(n)) continue;
    ASSERT_LE(m.netlist.fanins(n).size(), static_cast<std::size_t>(k));
  }
  Rng rng(1);
  std::vector<std::uint64_t> words(g.num_pis());
  for (int round = 0; round < 4; ++round) {
    for (auto& w : words) w = rng.next_u64();
    const auto va = aig::simulate_words(g, words);
    const auto vl = m.netlist.simulate_words(words);
    const aig::Lit po = g.pos()[0];
    const auto& lpo = m.netlist.pos()[0];
    ASSERT_EQ(lpo.kind, lut::LutNetwork::Po::Kind::kNode);
    EXPECT_EQ(va[po.node()] ^ (po.is_compl() ? ~0ULL : 0ULL),
              vl[lpo.node] ^ (lpo.complemented ? ~0ULL : 0ULL));
  }
  // Larger k never increases LUT count on the same circuit (same cost kind,
  // same cut bound) — sanity of the covering objective.
  if (k > 3) {
    lut::MapperParams p3 = p;
    p3.lut_size = 3;
    EXPECT_LE(m.num_luts, lut::map_to_luts(g, p3).num_luts * 2);
  }
}

INSTANTIATE_TEST_SUITE_P(K, LutSizeSweep, ::testing::Values(3, 4, 5, 6));

// --- encoder agreement ----------------------------------------------------------

class EncoderAgreement : public ::testing::TestWithParam<int> {};

TEST_P(EncoderAgreement, TseitinMappedAndSimplifiedAllAgree) {
  gen::RandomAigParams rp;
  rp.num_pis = 8;
  rp.num_gates = 120;
  rp.xor_fraction = 0.35;
  rp.num_pos = 1;
  const Aig g = gen::random_aig(rp, 6100 + GetParam());

  const auto base = cnf::tseitin_encode(g);
  sat::Status expected;
  if (base.trivially_sat) {
    expected = sat::Status::kSat;
  } else if (base.trivially_unsat) {
    expected = sat::Status::kUnsat;
  } else {
    expected = sat::solve_cnf(base.cnf).status;
  }

  // Mapped encoding.
  const auto m = lut::map_to_luts(g, lut::MapperParams{});
  const auto lenc = lut::lut_to_cnf(m.netlist);
  const auto lut_status = lenc.trivially_sat   ? sat::Status::kSat
                          : lenc.trivially_unsat ? sat::Status::kUnsat
                                                 : sat::solve_cnf(lenc.cnf).status;
  EXPECT_EQ(lut_status, expected);

  // Simplified baseline encoding.
  if (!base.trivially_sat && !base.trivially_unsat) {
    const auto s = cnf::simplify(base.cnf);
    const auto simp_status =
        s.unsat ? sat::Status::kUnsat : sat::solve_cnf(s.cnf).status;
    EXPECT_EQ(simp_status, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncoderAgreement, ::testing::Range(0, 10));

// --- solver limit behaviour -------------------------------------------------------

TEST(SolverLimits, WallClockLimitTerminates) {
  // A commuted 7x7 multiplier miter needs far more than 50 ms.
  Aig g1, g2;
  {
    const auto a = gen::input_word(g1, 7), b = gen::input_word(g1, 7);
    for (aig::Lit l : gen::array_multiply(g1, a, b)) g1.add_po(l);
  }
  {
    const auto a = gen::input_word(g2, 7), b = gen::input_word(g2, 7);
    for (aig::Lit l : gen::shift_add_multiply(g2, b, a)) g2.add_po(l);
  }
  const auto enc = cnf::tseitin_encode(gen::make_miter(g1, g2));
  sat::Limits limits;
  limits.max_seconds = 0.05;
  const auto r = sat::solve_cnf(enc.cnf, sat::SolverConfig{}, limits);
  EXPECT_EQ(r.status, sat::Status::kUnknown);
}

TEST(SolverStats, LearnedAndRemovedTracked) {
  // Pigeonhole forces learning; long runs trigger DB reduction.
  cnf::Cnf f;
  const int holes = 7;
  const int pigeons = holes + 1;
  f.add_vars(pigeons * holes);
  const auto var = [&](int p, int h) {
    return static_cast<std::uint32_t>(p * holes + h);
  };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<cnf::Lit> clause;
    for (int h = 0; h < holes; ++h)
      clause.push_back(cnf::Lit::make(var(p, h), false));
    f.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        f.add_binary(cnf::Lit::make(var(p1, h), true),
                     cnf::Lit::make(var(p2, h), true));
  const auto r = sat::solve_cnf(f);
  EXPECT_EQ(r.status, sat::Status::kUnsat);
  EXPECT_GT(r.stats.learned, 100u);
  EXPECT_GT(r.stats.restarts, 0u);
  EXPECT_GT(r.stats.max_decision_level, 5u);
}

// --- suite shape ----------------------------------------------------------------

TEST(SuiteShape, TestSuiteIsHarderThanTrainingSuite) {
  const auto train = gen::make_training_suite(20, 5);
  const auto test = gen::make_test_suite(20, 5);
  std::size_t train_gates = 0, test_gates = 0;
  for (const auto& i : train) train_gates += i.circuit.num_ands();
  for (const auto& i : test) test_gates += i.circuit.num_ands();
  EXPECT_GT(test_gates, 2 * train_gates);
}

TEST(SuiteShape, NamesEncodeFamilyAndKind) {
  for (const auto& inst : gen::make_test_suite(12, 3)) {
    const bool lec = inst.name.rfind("lec_", 0) == 0;
    const bool atpg = inst.name.rfind("atpg_", 0) == 0;
    EXPECT_TRUE(lec || atpg) << inst.name;
    EXPECT_EQ(lec, inst.kind == gen::Instance::Kind::kLec) << inst.name;
  }
}

}  // namespace
}  // namespace csat
