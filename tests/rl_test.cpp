// Tests for the RL stack: paper state features (Eq. 1-2), the embedding
// substitute, MDP environment mechanics and reward semantics (Eq. 3), the
// environment's solve memo, replay buffer, DQN learning on a crafted
// bandit, the policies, and a golden pin of a short training run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "aig/structural_hash.h"
#include "gen/arith.h"
#include "gen/suite.h"
#include "rl/dqn.h"
#include "rl/embedding.h"
#include "rl/env.h"
#include "rl/features.h"
#include "rl/policy.h"
#include "rl/replay.h"
#include "rl/trainer.h"

namespace csat::rl {
namespace {

using aig::Aig;
using aig::Lit;

TEST(Features, BalanceRatioOfChainVsTree) {
  // Linear AND chain: every node joins a depth-d subtree with a PI
  // (depth 0) -> highly imbalanced, ratio near 1.
  Aig chain;
  Lit acc = chain.add_pi();
  for (int i = 0; i < 8; ++i) acc = chain.and2(acc, chain.add_pi());
  chain.add_po(acc);
  // Balanced tree of 8 PIs -> every AND joins equal-depth operands.
  Aig tree;
  std::vector<Lit> layer;
  for (int i = 0; i < 8; ++i) layer.push_back(tree.add_pi());
  while (layer.size() > 1) {
    std::vector<Lit> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(tree.and2(layer[i], layer[i + 1]));
    layer = std::move(next);
  }
  tree.add_po(layer[0]);

  EXPECT_NEAR(average_balance_ratio(tree), 0.0, 1e-9);
  EXPECT_GT(average_balance_ratio(chain), 0.5);
}

TEST(Features, RatiosAreOneForIdenticalNetworks) {
  Aig g;
  const auto a = gen::input_word(g, 4);
  const auto b = gen::input_word(g, 4);
  for (Lit l : gen::ripple_carry_add(g, a, b, aig::kFalse, true)) g.add_po(l);
  const auto f = extract_features(g, g);
  ASSERT_EQ(f.size(), static_cast<std::size_t>(kNumStateFeatures));
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], 1.0);
  EXPECT_DOUBLE_EQ(f[2], 1.0);
  EXPECT_NEAR(f[3] + f[4], 1.0, 1e-12);  // AND + NOT proportions partition
}

TEST(Embedding, DeterministicAndDiscriminative) {
  Aig g1;
  {
    const auto a = gen::input_word(g1, 6);
    g1.add_po(gen::parity(g1, a));
  }
  Aig g2;
  {
    const auto a = gen::input_word(g2, 3);
    const auto b = gen::input_word(g2, 3);
    for (Lit l : gen::array_multiply(g2, a, b)) g2.add_po(l);
  }
  const auto e1 = functional_embedding(g1);
  const auto e1b = functional_embedding(g1);
  const auto e2 = functional_embedding(g2);
  ASSERT_EQ(e1.size(), static_cast<std::size_t>(kEmbeddingDim));
  EXPECT_EQ(e1, e1b);
  EXPECT_NE(e1, e2);
  // Parity output under random patterns is unbiased: density near 0.5.
  EXPECT_NEAR(e1[12], 0.5, 0.1);
}

TEST(Replay, RingBufferWrapsAround)
{
  ReplayBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    Transition t;
    t.reward = i;
    buf.push(std::move(t));
  }
  EXPECT_EQ(buf.size(), 4u);
  Rng rng(1);
  for (std::size_t slot : buf.sample(16, rng))
    EXPECT_GE(buf[slot].reward, 6.0);  // only the last four survive
}

TEST(Env, EpisodeMechanics) {
  EnvConfig cfg;
  cfg.max_steps = 3;
  cfg.solve_limits.max_conflicts = 10000;
  SynthEnv env(cfg);

  Aig g;
  const auto a = gen::input_word(g, 3);
  const auto b = gen::input_word(g, 3);
  for (Lit l : gen::array_multiply(g, a, b)) g.add_po(l);
  // Make it a CSAT instance with one PO.
  Aig inst;
  {
    const auto x = gen::input_word(inst, 3);
    const auto y = gen::input_word(inst, 3);
    const auto p = gen::array_multiply(inst, x, y);
    inst.add_po(inst.and2(p[2], !p[4]));
  }

  auto s = env.reset(inst);
  EXPECT_EQ(static_cast<int>(s.size()), env.state_size());
  auto r1 = env.step(synth::SynthOp::kRewrite);
  EXPECT_FALSE(r1.done);
  EXPECT_DOUBLE_EQ(r1.reward, 0.0);  // Eq. 3: zero before terminal
  auto r2 = env.step(synth::SynthOp::kBalance);
  EXPECT_FALSE(r2.done);
  auto r3 = env.step(synth::SynthOp::kResub);
  EXPECT_TRUE(r3.done);  // step cap T = 3
  EXPECT_EQ(env.step_count(), 3);
}

TEST(Env, EndActionTerminatesImmediately) {
  EnvConfig cfg;
  cfg.solve_limits.max_conflicts = 10000;
  SynthEnv env(cfg);
  Aig inst;
  const auto x = gen::input_word(inst, 4);
  const auto y = gen::input_word(inst, 4);
  const auto s = gen::ripple_carry_add(inst, x, y);
  inst.add_po(inst.and2(s[0], s[3]));
  env.reset(inst);
  const auto r = env.step(synth::SynthOp::kEnd);
  EXPECT_TRUE(r.done);
  EXPECT_EQ(env.step_count(), 0);
  // Terminal reward is defined (baseline and final decisions measured).
  EXPECT_GE(env.baseline_decisions(), 0u);
}

/// A small single-PO CSAT instance: bit \p bit of a w-bit product ANDed
/// with the complement of another product bit.
Aig product_instance(int w, int bit) {
  Aig inst;
  const auto x = gen::input_word(inst, w);
  const auto y = gen::input_word(inst, w);
  const auto p = gen::array_multiply(inst, x, y);
  inst.add_po(inst.and2(p[bit], !p[2 * w - 2]));
  return inst;
}

struct Episode {
  std::vector<std::vector<double>> states;
  std::vector<double> rewards;
  std::uint64_t baseline = 0;
  std::uint64_t final = 0;

  bool operator==(const Episode&) const = default;
};

Episode run_episode(SynthEnv& env, const Aig& inst,
                    const std::vector<synth::SynthOp>& actions) {
  Episode e;
  e.states.push_back(env.reset(inst));
  for (synth::SynthOp a : actions) {
    const StepResult r = env.step(a);
    e.states.push_back(r.state);
    e.rewards.push_back(r.reward);
    if (r.done) break;
  }
  e.baseline = env.baseline_decisions();
  e.final = env.final_decisions();
  return e;
}

EnvConfig memo_test_config() {
  EnvConfig cfg;
  cfg.max_steps = 3;
  cfg.solve_limits.max_conflicts = 10000;
  return cfg;
}

TEST(Env, MemoMatchesFreshEnvironment) {
  using synth::SynthOp;
  const Aig a = product_instance(3, 2);
  const Aig b = product_instance(4, 3);
  const std::vector<SynthOp> by_end{SynthOp::kRewrite, SynthOp::kBalance,
                                    SynthOp::kEnd};
  const std::vector<SynthOp> by_cap{SynthOp::kResub, SynthOp::kRewrite,
                                    SynthOp::kRefactor};
  const std::vector<SynthOp> by_cap2{SynthOp::kRewrite, SynthOp::kBalance,
                                     SynthOp::kRewrite};
  const std::vector<SynthOp> at_once{SynthOp::kEnd};
  // (instance, recipe): repeats of both, recipes ending by `end` and by the
  // step cap, and the same recipe on two instances.
  const std::vector<std::pair<const Aig*, std::vector<SynthOp>>> episodes{
      {&a, by_end}, {&b, by_cap}, {&a, by_end},  {&a, by_cap2}, {&b, by_cap},
      {&a, at_once}, {&b, by_end}, {&a, at_once}, {&a, by_cap2}, {&b, by_end}};

  SynthEnv shared(memo_test_config());
  for (std::size_t i = 0; i < episodes.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& [inst, recipe] = episodes[i];
    SynthEnv fresh(memo_test_config());
    EXPECT_EQ(run_episode(shared, *inst, recipe), run_episode(fresh, *inst, recipe));
  }
  const SolveCounts& c = shared.solve_counts();
  EXPECT_EQ(c.baseline_runs, 2u);  // a and b
  EXPECT_EQ(c.baseline_hits, 8u);
  EXPECT_EQ(c.final_runs, 5u);  // a: by_end, by_cap2, at_once; b: by_cap, by_end
  EXPECT_EQ(c.final_hits, 5u);
}

TEST(Env, MemoKeysOnExactStructure) {
  // One circuit, two node orders: structural_hash cannot tell them apart,
  // but node ids steer synthesis and the solver, so each gets its own entry.
  const auto build = [](bool left_first) {
    Aig g;
    const auto x = gen::input_word(g, 4);
    const auto y = gen::input_word(g, 4);
    const auto left = [&] { return g.and2(g.xor2(x[0], y[0]), g.or2(x[1], y[1])); };
    const auto right = [&] { return g.and2(g.xor2(x[2], y[2]), g.or2(x[3], !y[3])); };
    Lit l, r;
    if (left_first) {
      l = left();
      r = right();
    } else {
      r = right();
      l = left();
    }
    g.add_po(g.and2(l, !r));
    return g;
  };
  const Aig g1 = build(true);
  const Aig g2 = build(false);
  ASSERT_EQ(aig::structural_hash(g1), aig::structural_hash(g2));
  ASSERT_FALSE(aig::identical(aig::cleanup_copy(g1), aig::cleanup_copy(g2)));

  using synth::SynthOp;
  const std::vector<SynthOp> recipe{SynthOp::kBalance, SynthOp::kRewrite,
                                    SynthOp::kResub};
  SynthEnv shared(memo_test_config());
  for (const Aig* g : {&g1, &g2, &g1, &g2}) {
    SynthEnv fresh(memo_test_config());
    EXPECT_EQ(run_episode(shared, *g, recipe), run_episode(fresh, *g, recipe));
  }
  EXPECT_EQ(shared.solve_counts().baseline_runs, 2u);
  EXPECT_EQ(shared.solve_counts().baseline_hits, 2u);
  EXPECT_EQ(shared.solve_counts().final_runs, 2u);
  EXPECT_EQ(shared.solve_counts().final_hits, 2u);
}

TEST(Dqn, LearnsABanditPreference) {
  // Single-state bandit: action 2 yields reward 1, the rest 0. After
  // training, the greedy policy must pick action 2 — this exercises the
  // full forward/backward/Adam/target-sync path.
  DqnConfig cfg;
  cfg.state_size = 4;
  cfg.hidden = {16};
  cfg.learning_rate = 5e-3;
  cfg.batch_size = 8;
  cfg.epsilon_decay_steps = 1;
  cfg.epsilon_end = 0.0;
  DqnAgent agent(cfg);
  const std::vector<double> s{1.0, 0.0, 0.0, 1.0};
  for (int a = 0; a < synth::kNumSynthActions; ++a) {
    for (int i = 0; i < 20; ++i) {
      Transition t;
      t.state = s;
      t.action = a;
      t.reward = a == 2 ? 1.0 : 0.0;
      t.next_state = s;
      t.done = true;
      agent.remember(std::move(t));
    }
  }
  for (int step = 0; step < 500; ++step) agent.train_step();
  EXPECT_EQ(agent.act_greedy(s), static_cast<synth::SynthOp>(2));
  const auto q = agent.q_values(s);
  EXPECT_NEAR(q[2], 1.0, 0.2);
  EXPECT_LT(q[0], 0.5);
}

TEST(Dqn, EpsilonDecays) {
  DqnConfig cfg;
  cfg.state_size = 2;
  cfg.hidden = {4};
  cfg.epsilon_decay_steps = 10;
  DqnAgent agent(cfg);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  const std::vector<double> s{0.0, 0.0};
  for (int i = 0; i < 20; ++i) (void)agent.act(s);
  EXPECT_NEAR(agent.epsilon(), cfg.epsilon_end, 1e-9);
}

TEST(Policy, FixedRecipeAndRandom) {
  FixedRecipePolicy fixed({synth::SynthOp::kBalance, synth::SynthOp::kRewrite});
  fixed.begin();
  const std::vector<double> s;
  EXPECT_EQ(fixed.next_op(s), synth::SynthOp::kBalance);
  EXPECT_EQ(fixed.next_op(s), synth::SynthOp::kRewrite);
  EXPECT_EQ(fixed.next_op(s), synth::SynthOp::kEnd);
  fixed.begin();  // restart
  EXPECT_EQ(fixed.next_op(s), synth::SynthOp::kBalance);

  RandomPolicy random(42);
  for (int i = 0; i < 50; ++i) {
    const auto op = random.next_op(s);
    EXPECT_NE(op, synth::SynthOp::kEnd);
    EXPECT_LT(static_cast<int>(op), synth::kNumSynthActions);
  }
}

TEST(Trainer, SmokeRunProducesLogs) {
  const auto dataset = gen::make_training_suite(3, 77);
  DqnConfig dcfg;
  dcfg.state_size = kNumStateFeatures + kEmbeddingDim;
  dcfg.hidden = {16};
  dcfg.batch_size = 4;
  DqnAgent agent(dcfg);
  TrainConfig tcfg;
  tcfg.episodes = 4;
  tcfg.env.max_steps = 2;
  tcfg.env.solve_limits.max_conflicts = 5000;
  const auto report = train_agent(agent, dataset, tcfg);
  ASSERT_EQ(report.episodes.size(), 4u);
  for (const auto& ep : report.episodes) {
    EXPECT_LE(ep.steps, 2);
    EXPECT_TRUE(std::isfinite(ep.reward));
  }
}

TEST(RlGolden, TrainedAgentMatchesParent) {
  // A short run that repeats instances and recipes (so the memo serves
  // solves), syncs the target network and batches bootstrap targets. The
  // constants are the Q-value bit patterns this run produced before the
  // memo and the batched kernel existed; any drift in training shows here.
  DqnConfig dcfg;
  dcfg.state_size = kNumStateFeatures + kEmbeddingDim;
  dcfg.hidden = {24, 16};
  dcfg.batch_size = 8;
  dcfg.target_sync_every = 6;
  DqnAgent agent(dcfg);
  TrainConfig tcfg;
  tcfg.episodes = 24;
  tcfg.env.max_steps = 3;
  tcfg.env.solve_limits.max_conflicts = 5000;
  const TrainReport report = train_agent(agent, gen::make_training_suite(4, 77), tcfg);
  EXPECT_GT(report.solves.baseline_hits, 0u);
  EXPECT_GT(report.solves.final_hits, 0u);
  EXPECT_EQ(report.solves.baseline_runs + report.solves.baseline_hits, 24u);
  EXPECT_EQ(report.solves.final_runs + report.solves.final_hits, 24u);

  const std::vector<double> probe(static_cast<std::size_t>(dcfg.state_size), 0.5);
  const std::vector<double> q = agent.q_values(probe);
  const std::uint64_t expected[] = {0xbfd3f965fe3db50aULL, 0xbfd04bd2dc8d0c6eULL,
                                    0x3fdc367824587527ULL, 0x3fe582024f1dfb7aULL,
                                    0x3fd07ebb348c8ae8ULL};
  ASSERT_EQ(q.size(), std::size(expected));
  for (std::size_t i = 0; i < q.size(); ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &q[i], sizeof bits);
    EXPECT_EQ(bits, expected[i]) << "action " << i << ": " << q[i];
  }
}

}  // namespace
}  // namespace csat::rl
