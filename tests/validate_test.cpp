// Tests for the structural validator, including validation of every
// synthesis pass's output (regression net for the rebuild machinery) and of
// the generated workload suites.

#include <gtest/gtest.h>

#include "aig/validate.h"
#include "gen/arith.h"
#include "gen/random_circuit.h"
#include "gen/suite.h"
#include "synth/balance.h"
#include "synth/recipe.h"

namespace csat::aig {
namespace {

TEST(Validate, AcceptsWellFormedCircuits) {
  Aig g;
  const auto a = gen::input_word(g, 4);
  const auto b = gen::input_word(g, 4);
  for (Lit l : gen::ripple_carry_add(g, a, b, kFalse, true)) g.add_po(l);
  const auto report = validate(g);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors[0]);
}

TEST(Validate, EverySynthesisPassEmitsValidNetworks) {
  gen::RandomAigParams rp;
  rp.num_pis = 8;
  rp.num_gates = 150;
  rp.xor_fraction = 0.3;
  const Aig g = gen::random_aig(rp, 77);
  for (const auto op : {synth::SynthOp::kRewrite, synth::SynthOp::kRefactor,
                        synth::SynthOp::kBalance, synth::SynthOp::kResub}) {
    const Aig h = synth::apply_op(g, op);
    const auto report = validate(h);
    EXPECT_TRUE(report.ok) << synth::to_string(op) << ": "
                           << (report.errors.empty() ? "" : report.errors[0]);
  }
  const Aig c = synth::apply_recipe(g, synth::compress2_recipe());
  EXPECT_TRUE(validate(c).ok);
}

TEST(Validate, SuiteInstancesAreValid) {
  for (const auto& inst : gen::make_training_suite(6, 17))
    EXPECT_TRUE(validate(inst.circuit).ok) << inst.name;
  for (const auto& inst : gen::make_test_suite(4, 17))
    EXPECT_TRUE(validate(inst.circuit).ok) << inst.name;
}

}  // namespace
}  // namespace csat::aig
