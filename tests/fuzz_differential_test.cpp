// Differential fuzzing of the solving stack: every instance is solved three
// ways — sequential single solver, portfolio without clause sharing, and
// portfolio with clause sharing — and all three verdicts must agree. Every
// SAT verdict's model is checked against the original CNF. Instances come
// from seeded random 3-SAT (both sides of the phase transition), crafted
// UNSAT families, and generated circuit miters (src/gen), a few hundred in
// total per run, reproducible from fixed seeds. The `circuit` lever (PR 9)
// additionally solves 200+ generated miters and bridged CNF instances with
// the circuit-native backend AND the Tseitin+CNF backend: verdicts must
// agree, every SAT witness must drive the AIG to a true PO, and every
// circuit-arm assignment must be a model of the Tseitin encoding. The
// `sweep` lever runs synth::sweep on random circuits and on bugged and
// equivalent miters: every output must be equivalent to its input by an
// exact SAT miter, and every synthesis arm (each of which sweeps in its
// normalization prelude) must return Baseline's verdict.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aig/simulate.h"
#include "cnf/cnf_to_aig.h"
#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "gen/miter.h"
#include "gen/pigeonhole.h"
#include "gen/random_circuit.h"
#include "gen/suite.h"
#include "sat/circuit_solver.h"
#include "sat/drat_check.h"
#include "sat/portfolio.h"
#include "sat/proof.h"
#include "sat/solver.h"
#include "synth/recipe.h"
#include "synth/sweep.h"
#include "test_formulas.h"

namespace csat {
namespace {

using gen::pigeonhole;
using test::check_model;
using test::random_3sat;

/// Solves \p f sequentially and through both portfolio flavours, asserting
/// verdict agreement and model validity. Returns the agreed verdict.
sat::Status solve_three_ways(const cnf::Cnf& f, const std::string& tag) {
  const auto seq = sat::solve_cnf(f, sat::SolverConfig::kissat_like());
  EXPECT_NE(seq.status, sat::Status::kUnknown) << tag;
  if (seq.status == sat::Status::kSat) {
    EXPECT_TRUE(check_model(f, seq.model)) << tag;
  }

  for (const bool share : {false, true}) {
    sat::PortfolioOptions opt;
    opt.num_workers = 4;
    opt.sharing.enabled = share;
    const auto r = sat::solve_portfolio(f, opt);
    EXPECT_EQ(r.status, seq.status)
        << tag << " portfolio(sharing=" << share
        << ") disagrees with sequential";
    if (r.status == sat::Status::kSat) {
      EXPECT_TRUE(check_model(f, r.model)) << tag << " sharing=" << share;
    }
    // Cross-worker agreement inside one race: any definitive loser must
    // match the winner (solve_portfolio CSAT_CHECKs this too; assert it in
    // the test report as well).
    for (std::size_t w = 0; w < r.workers.size(); ++w) {
      if (r.workers[w].status != sat::Status::kUnknown) {
        EXPECT_EQ(r.workers[w].status, seq.status)
            << tag << " sharing=" << share << " worker " << w;
      }
    }
  }
  return seq.status;
}

TEST(FuzzDifferential, RandomCnfAcrossThePhaseTransition) {
  // 240 random instances: clause/var ratios from clearly-SAT (3.0) through
  // the threshold (~4.26) to clearly-UNSAT (5.2), sizes 20-60 vars.
  Rng rng(0xC1A05E);
  int sat_count = 0;
  int unsat_count = 0;
  for (int i = 0; i < 240; ++i) {
    const int vars = 20 + static_cast<int>(rng.next_below(41));
    const double ratio = 3.0 + 0.01 * static_cast<double>(rng.next_below(221));
    const int clauses = static_cast<int>(vars * ratio);
    const cnf::Cnf f = random_3sat(vars, clauses, rng.next_u64());
    const auto verdict = solve_three_ways(
        f, "random3sat[" + std::to_string(i) + "] vars=" +
               std::to_string(vars) + " clauses=" + std::to_string(clauses));
    if (verdict == sat::Status::kSat) ++sat_count;
    if (verdict == sat::Status::kUnsat) ++unsat_count;
  }
  // The ratio sweep must exercise both verdicts, or the differential check
  // is vacuous on one side.
  EXPECT_GT(sat_count, 20);
  EXPECT_GT(unsat_count, 20);
}

TEST(FuzzDifferential, CraftedUnsatFamilies) {
  for (int holes = 3; holes <= 6; ++holes) {
    EXPECT_EQ(solve_three_ways(pigeonhole(holes),
                               "pigeonhole(" + std::to_string(holes) + ")"),
              sat::Status::kUnsat);
  }
}

TEST(FuzzDifferential, GeneratedCircuitMiters) {
  // LEC/ATPG miters from the suite generator: a mix of SAT (injected bug /
  // testable fault) and UNSAT (equivalent / untestable) circuit instances,
  // Tseitin-encoded exactly as the pipeline would.
  gen::SuiteParams params;
  params.count = 60;
  params.seed = 20260727;
  // Keep the hard multiplier widths small so the fuzz suite stays fast.
  params.multiplier = {3, 4, 0.30};
  const auto suite = gen::make_suite(params);
  int sat_count = 0;
  int unsat_count = 0;
  for (const auto& inst : suite) {
    const auto enc = cnf::tseitin_encode(inst.circuit);
    if (enc.trivially_sat) continue;
    const auto verdict = solve_three_ways(enc.cnf, inst.name);
    if (verdict == sat::Status::kSat) ++sat_count;
    if (verdict == sat::Status::kUnsat) ++unsat_count;
  }
  EXPECT_GT(sat_count, 0);
  EXPECT_GT(unsat_count, 0);
}

TEST(FuzzDifferential, SimplifyPreservesVerdictsAndModels) {
  // ~200 instances through the full preprocessor (propagation, pures,
  // failed-literal probing, equivalent-literal substitution, subsumption,
  // BVE, variable remapping) differentially against an untouched sequential
  // solver. Every SAT model is reconstructed with extend_model and checked
  // against the ORIGINAL formula, never the simplified one.
  int sat_count = 0;
  int unsat_count = 0;
  const auto check_one = [&](const cnf::Cnf& f, const std::string& tag) {
    const auto plain = sat::solve_cnf(f, sat::SolverConfig::kissat_like());
    ASSERT_NE(plain.status, sat::Status::kUnknown) << tag;
    const auto r = cnf::simplify(f);
    if (r.unsat) {
      EXPECT_EQ(plain.status, sat::Status::kUnsat) << tag;
      ++unsat_count;
      return;
    }
    const auto solved = sat::solve_cnf(r.cnf, sat::SolverConfig::kissat_like());
    EXPECT_EQ(solved.status, plain.status) << tag;
    if (solved.status == sat::Status::kSat) {
      EXPECT_TRUE(check_model(r.cnf, solved.model)) << tag << " (simplified)";
      EXPECT_TRUE(check_model(f, r.extend_model(solved.model)))
          << tag << " (original, reconstructed)";
      ++sat_count;
    } else {
      ++unsat_count;
    }
  };

  Rng rng(0x51A9F1);
  for (int i = 0; i < 140; ++i) {
    const int vars = 15 + static_cast<int>(rng.next_below(46));
    const double ratio = 2.8 + 0.01 * static_cast<double>(rng.next_below(261));
    const cnf::Cnf f =
        random_3sat(vars, static_cast<int>(vars * ratio), rng.next_u64());
    check_one(f, "simplify/random3sat[" + std::to_string(i) + "]");
  }
  for (int holes = 3; holes <= 5; ++holes) {
    check_one(pigeonhole(holes),
              "simplify/pigeonhole(" + std::to_string(holes) + ")");
  }
  gen::SuiteParams params;
  params.count = 60;
  params.seed = 20260807;
  params.multiplier = {3, 4, 0.30};
  for (const auto& inst : gen::make_suite(params)) {
    const auto enc = cnf::tseitin_encode(inst.circuit);
    if (enc.trivially_sat) continue;
    check_one(enc.cnf, "simplify/" + inst.name);
  }
  // Both verdicts must be exercised or the differential is one-sided.
  EXPECT_GT(sat_count, 20);
  EXPECT_GT(unsat_count, 20);
}

TEST(FuzzDifferential, GcChurnUnderSharing) {
  // Arena GC interaction: every worker reduces its learnt DB every few
  // dozen conflicts (constant mark-compact churn) while importing shared
  // clauses. Differential against an untouched sequential solver.
  Rng rng(0x6A4BA6E);
  sat::PortfolioOptions opt;
  opt.configs = sat::default_portfolio(4);
  for (auto& cfg : opt.configs) {
    cfg.reduce_first = 40;
    cfg.reduce_increment = 10;
  }
  opt.sharing.enabled = true;
  opt.sharing.ring_capacity = 64;
  for (int i = 0; i < 25; ++i) {
    const int vars = 20 + static_cast<int>(rng.next_below(31));
    const double ratio = 3.8 + 0.01 * static_cast<double>(rng.next_below(101));
    const cnf::Cnf f = random_3sat(
        vars, static_cast<int>(vars * ratio), rng.next_u64());
    const auto seq = sat::solve_cnf(f, sat::SolverConfig::kissat_like());
    const auto r = sat::solve_portfolio(f, opt);
    EXPECT_EQ(r.status, seq.status) << i;
    if (r.status == sat::Status::kSat) {
      EXPECT_TRUE(check_model(f, r.model)) << i;
    }
  }
}

TEST(FuzzDifferential, InprocessingLeverMatrix) {
  // The cnf-simplify axis: both arms must agree with the default
  // sequential solver, sequentially and through a 4-worker sharing
  // portfolio, and every SAT verdict's model must check out (against the
  // ORIGINAL formula when the simplify lever rewrote it). Trail reuse,
  // fixpoint import and adaptive glue export are always on, so every arm
  // runs them.
  Rng rng(0x1E7E85);
  for (int i = 0; i < 40; ++i) {
    const int vars = 20 + static_cast<int>(rng.next_below(31));
    const double ratio = 3.6 + 0.01 * static_cast<double>(rng.next_below(141));
    const cnf::Cnf f = random_3sat(
        vars, static_cast<int>(vars * ratio), rng.next_u64());
    const auto baseline = sat::solve_cnf(f, sat::SolverConfig::kissat_like());
    ASSERT_NE(baseline.status, sat::Status::kUnknown) << i;
    if (baseline.status == sat::Status::kSat) {
      EXPECT_TRUE(check_model(f, baseline.model)) << i;
    }
    for (const bool simplify : {false, true}) {
      // The simplify lever runs the CNF preprocessor first and solves the
      // rewritten (remapped) formula; models are reconstructed back onto
      // the original variable space before checking. The sequential arm
      // additionally traces a DRAT proof — simplifier steps in
      // original-variable space, solver steps translated back through
      // RemapTracer — and every UNSAT verdict must yield a refutation the
      // checker validates against the ORIGINAL formula.
      sat::ProofLog proof;
      cnf::SimplifyResult pre;
      const cnf::Cnf* target = &f;
      if (simplify) {
        cnf::SimplifyParams sp;
        sp.proof = &proof;
        pre = cnf::simplify(f, sp);
        if (pre.unsat) {
          EXPECT_EQ(baseline.status, sat::Status::kUnsat) << i;
          const auto res = sat::check_drat(f, proof);
          EXPECT_TRUE(res.valid && res.proved_unsat)
              << i << " simplify-only refutation: " << res.error;
          continue;
        }
        target = &pre.cnf;
      }
      const auto lift = [&](const std::vector<bool>& model) {
        return simplify ? pre.extend_model(model) : model;
      };
      std::optional<sat::RemapTracer> remap;
      if (simplify) remap.emplace(proof, pre.inverse_map);
      sat::ProofTracer* tracer = remap ? static_cast<sat::ProofTracer*>(&*remap)
                                       : &proof;
      const auto seq = sat::solve_cnf(
          *target, sat::SolverConfig::kissat_like(), {}, tracer);
      EXPECT_EQ(seq.status, baseline.status)
          << i << " simplify=" << simplify;
      if (seq.status == sat::Status::kSat) {
        EXPECT_TRUE(check_model(f, lift(seq.model))) << i;
      }
      if (seq.status == sat::Status::kUnsat) {
        const auto res = sat::check_drat(f, proof);
        EXPECT_TRUE(res.valid)
            << i << " simplify=" << simplify << ": " << res.error;
        EXPECT_TRUE(res.proved_unsat) << i;
      }
      // Portfolio: diversified workers, sharing on.
      sat::PortfolioOptions opt;
      opt.configs = sat::default_portfolio(4);
      opt.sharing.enabled = true;
      const auto par = sat::solve_portfolio(*target, opt);
      EXPECT_EQ(par.status, baseline.status)
          << i << " simplify=" << simplify;
      if (par.status == sat::Status::kSat) {
        EXPECT_TRUE(check_model(f, lift(par.model))) << i;
      }
    }
  }
}

TEST(FuzzDifferential, UnsatProofsValidateAcrossInstanceFamilies) {
  // ~110 instances — random 3-SAT biased to the UNSAT side, pigeonhole,
  // and Tseitin-encoded circuit miters — each solved sequentially with
  // DRAT tracing, with the CNF preprocessor both off and on, under both
  // presets. EMA restarts (kissat_like) and Luby restarts with slower decay
  // (cadical_like) derive different learnt sequences; both must still emit
  // proofs the in-tree checker validates against the ORIGINAL formula. A
  // single missing or misordered emission anywhere in the solver or the
  // simplifier fails the sweep.
  int proofs_checked = 0;
  const auto check_one = [&](const cnf::Cnf& f, const std::string& tag) {
    for (const bool kissat : {true, false}) {
      const sat::SolverConfig cfg = kissat ? sat::SolverConfig::kissat_like()
                                           : sat::SolverConfig::cadical_like();
      for (const bool simplify : {false, true}) {
        sat::ProofLog proof;
        sat::Status status = sat::Status::kUnsat;
        if (simplify) {
          cnf::SimplifyParams sp;
          sp.proof = &proof;
          const auto pre = cnf::simplify(f, sp);
          if (!pre.unsat) {
            sat::RemapTracer remap(proof, pre.inverse_map);
            status = sat::solve_cnf(pre.cnf, cfg, {}, &remap).status;
          }
        } else {
          status = sat::solve_cnf(f, cfg, {}, &proof).status;
        }
        if (status != sat::Status::kUnsat) continue;
        const auto res = sat::check_drat(f, proof);
        EXPECT_TRUE(res.valid) << tag << " kissat=" << kissat
                               << " simplify=" << simplify << ": "
                               << res.error;
        EXPECT_TRUE(res.proved_unsat)
            << tag << " kissat=" << kissat << " simplify=" << simplify;
        ++proofs_checked;
      }
    }
  };

  Rng rng(0xD8A7F00);
  for (int i = 0; i < 80; ++i) {
    const int vars = 15 + static_cast<int>(rng.next_below(36));
    const double ratio = 4.0 + 0.01 * static_cast<double>(rng.next_below(161));
    check_one(random_3sat(vars, static_cast<int>(vars * ratio), rng.next_u64()),
              "proofs/random3sat[" + std::to_string(i) + "]");
  }
  for (int holes = 3; holes <= 6; ++holes) {
    check_one(pigeonhole(holes),
              "proofs/pigeonhole(" + std::to_string(holes) + ")");
  }
  gen::SuiteParams params;
  params.count = 24;
  params.seed = 20260808;
  params.multiplier = {3, 4, 0.30};
  for (const auto& inst : gen::make_suite(params)) {
    const auto enc = cnf::tseitin_encode(inst.circuit);
    if (enc.trivially_sat) continue;
    check_one(enc.cnf, "proofs/" + inst.name);
  }
  // Both preprocessor arms run per instance under both presets (four
  // solves each), so a healthy majority of the sweep must end in a checked
  // refutation or the sweep is vacuous.
  EXPECT_GT(proofs_checked, 160);
}

TEST(FuzzDifferential, CircuitBackendAgreesAcrossGeneratedInstances) {
  // The circuit lever: 200+ instances — LEC/ATPG miters, random circuit
  // windows, and CNF families bridged through cnf::cnf_to_aig — each solved
  // by the circuit-native backend, the Tseitin+CNF backend, and the
  // heterogeneous circuit-vs-CNF race. All verdicts must agree. Every SAT
  // verdict is checked in BOTH directions: the circuit witness must drive
  // the AIG to a true PO and its full gate assignment must satisfy the
  // Tseitin encoding; the CNF model's extracted PI witness must drive the
  // AIG too.
  const sat::CircuitSolverConfig circ_cfg =
      sat::CircuitSolverConfig::from_cnf(sat::SolverConfig::kissat_like());
  int total = 0;
  int sat_count = 0;
  int unsat_count = 0;
  const auto po_true = [](const aig::Aig& g, const std::vector<bool>& pis) {
    for (const bool po : aig::evaluate(g, pis))
      if (po) return true;
    return false;
  };
  const auto check_one = [&](const aig::Aig& g, const std::string& tag) {
    ++total;
    const auto circ = sat::solve_circuit(g, circ_cfg);
    ASSERT_NE(circ.status, sat::Status::kUnknown) << tag;

    const auto enc = cnf::tseitin_encode(g);
    sat::Status cnf_status = sat::Status::kUnknown;
    std::vector<bool> cnf_model;
    if (enc.trivially_unsat) {
      cnf_status = sat::Status::kUnsat;
    } else if (enc.trivially_sat) {
      cnf_status = sat::Status::kSat;
    } else {
      auto r = sat::solve_cnf(enc.cnf, sat::SolverConfig::kissat_like());
      cnf_status = r.status;
      cnf_model = std::move(r.model);
    }
    ASSERT_NE(cnf_status, sat::Status::kUnknown) << tag;
    EXPECT_EQ(circ.status, cnf_status) << tag << " circuit vs cnf";

    if (circ.status == sat::Status::kSat) {
      ++sat_count;
      EXPECT_TRUE(po_true(g, circ.witness)) << tag << " circuit witness";
      if (!enc.trivially_sat) {
        // The circuit arm's full assignment, mapped through node2var, must
        // be a model of the Tseitin encoding — the strongest cross-check
        // that both backends talk about the same instance.
        std::vector<bool> model(enc.cnf.num_vars(), false);
        for (std::size_t node = 0; node < enc.node2var.size(); ++node) {
          const std::uint32_t v = enc.node2var[node];
          if (v != UINT32_MAX) model[v] = circ.node_values[node] != 0;
        }
        EXPECT_TRUE(check_model(enc.cnf, model))
            << tag << " circuit assignment vs Tseitin encoding";
        const auto w = cnf::witness_from_model(g, enc, cnf_model);
        EXPECT_TRUE(po_true(g, w)) << tag << " cnf witness";
      }
    } else {
      ++unsat_count;
    }

    sat::CircuitRaceOptions ropt;
    ropt.circuit = circ_cfg;
    const auto race = sat::solve_circuit_race(g, ropt);
    EXPECT_EQ(race.status, circ.status) << tag << " race verdict";
    if (race.status == sat::Status::kSat) {
      EXPECT_TRUE(po_true(g, race.witness))
          << tag << " race witness (winner="
          << static_cast<int>(race.winner) << ")";
    }
  };

  // LEC/ATPG miters from the suite generator (mixed SAT/UNSAT).
  gen::SuiteParams params;
  params.count = 110;
  params.seed = 20260808;
  params.multiplier = {3, 4, 0.30};
  for (const auto& inst : gen::make_suite(params))
    check_one(inst.circuit, "circuit/" + inst.name);

  // Random circuit windows: the PO cone is an arbitrary internal function,
  // exercising frontier shapes miters never produce.
  Rng rng(0xC19CB);
  for (int i = 0; i < 40; ++i) {
    gen::RandomAigParams p;
    p.num_pis = 6 + static_cast<int>(rng.next_below(5));
    p.num_gates = 40 + static_cast<int>(rng.next_below(61));
    check_one(gen::random_aig(p, rng.next_u64()),
              "circuit/random_aig[" + std::to_string(i) + "]");
  }

  // CNF families through the cnf_to_aig bridge: vars become PIs, so the
  // bridge lets the gate-domain solver answer clause-domain questions.
  for (int i = 0; i < 50; ++i) {
    const int vars = 15 + static_cast<int>(rng.next_below(31));
    const double ratio = 3.4 + 0.01 * static_cast<double>(rng.next_below(161));
    const cnf::Cnf f =
        random_3sat(vars, static_cast<int>(vars * ratio), rng.next_u64());
    check_one(cnf::cnf_to_aig(f),
              "circuit/bridged_random3sat[" + std::to_string(i) + "]");
  }
  for (int holes = 3; holes <= 5; ++holes) {
    check_one(cnf::cnf_to_aig(pigeonhole(holes)),
              "circuit/bridged_pigeonhole(" + std::to_string(holes) + ")");
  }

  EXPECT_GE(total, 200);
  // Both verdicts must be well represented or the differential is
  // one-sided.
  EXPECT_GT(sat_count, 30);
  EXPECT_GT(unsat_count, 30);
}

/// \p g with its first PO flipped exactly when every PI is 1: a bug that
/// random simulation over few patterns rarely sees.
aig::Aig with_rare_bug(const aig::Aig& g) {
  aig::Aig h;
  std::vector<aig::Lit> map(g.num_nodes(), aig::kFalse);
  aig::Lit all = aig::kTrue;
  for (std::uint32_t pi : g.pis()) {
    map[pi] = h.add_pi();
    all = h.and2(all, map[pi]);
  }
  const auto image = [&](aig::Lit l) { return map[l.node()] ^ l.is_compl(); };
  for (std::uint32_t n = 1; n < g.num_nodes(); ++n)
    if (g.is_and(n)) map[n] = h.and2(image(g.fanin0(n)), image(g.fanin1(n)));
  for (std::size_t i = 0; i < g.num_pos(); ++i)
    h.add_po(i == 0 ? h.xor2(image(g.pos()[i]), all) : image(g.pos()[i]));
  return h;
}

TEST(FuzzDifferential, SweepLeverPreservesFunctionAndVerdicts) {
  // Random circuits (usually answered by the sweep's simulation, which
  // then returns them unchanged), equivalent miters against their
  // compress2 rewrite (UNSAT: every candidate pair goes to the solver) and
  // bugged miters (SAT; a bug random simulation misses, like the
  // all-ones one, leaves the sweep to disprove its pairs).
  int total = 0;
  int unsat_count = 0;
  int shrunk = 0;
  const auto check_one = [&](const aig::Aig& g, const std::string& tag) {
    ++total;
    const aig::Aig s = synth::sweep(g);
    const auto miter = cnf::tseitin_encode(gen::make_miter(g, s));
    ASSERT_FALSE(miter.trivially_sat) << tag;
    if (!miter.trivially_unsat) {
      EXPECT_EQ(sat::solve_cnf(miter.cnf, sat::SolverConfig::kissat_like()).status,
                sat::Status::kUnsat)
          << tag << " sweep output differs from its input";
    }
    if (s.num_ands() < aig::cleanup_copy(g).num_ands()) ++shrunk;

    core::PipelineOptions options;
    options.max_steps = 3;
    options.mode = core::PipelineMode::kBaseline;
    const auto base = core::solve_instance(g, options);
    ASSERT_NE(base.status, sat::Status::kUnknown) << tag;
    if (base.status == sat::Status::kUnsat) ++unsat_count;
    for (const auto mode :
         {core::PipelineMode::kComp, core::PipelineMode::kOurs,
          core::PipelineMode::kOursRandom, core::PipelineMode::kOursAreaMapper}) {
      options.mode = mode;
      EXPECT_EQ(core::solve_instance(g, options).status, base.status)
          << tag << " " << core::to_string(mode) << " vs Baseline";
    }
  };

  Rng rng(0x5ee9);
  for (int i = 0; i < 24; ++i) {
    gen::RandomAigParams p;
    p.num_pis = 6 + static_cast<int>(rng.next_below(7));
    p.num_gates = 40 + static_cast<int>(rng.next_below(81));
    p.num_pos = 1 + static_cast<int>(rng.next_below(3));
    p.xor_fraction = 0.1 * static_cast<double>(rng.next_below(5));
    const aig::Aig g = gen::random_aig(p, rng.next_u64());
    const std::string tag = "sweep/random_aig[" + std::to_string(i) + "]";
    check_one(g, tag);
    check_one(gen::make_miter(g, synth::apply_recipe(g, synth::compress2_recipe())),
              tag + "/equivalent_miter");
    check_one(gen::make_miter(g, gen::inject_bug(g, rng.next_u64())),
              tag + "/bugged_miter");
    check_one(gen::make_miter(g, with_rare_bug(g)), tag + "/rare_bug_miter");
  }
  for (const int width : {4, 8, 12}) {
    const aig::Aig adder = gen::make_adder_miter(width);
    check_one(adder, "sweep/adder_miter(" + std::to_string(width) + ")");
    // The miter's own output, mutated: a bug deep in one adder.
    check_one(gen::inject_bug(adder, 77 + width),
              "sweep/bugged_adder_miter(" + std::to_string(width) + ")");
  }
  gen::SuiteParams params;
  params.count = 24;
  params.seed = 20261020;
  params.multiplier = {3, 4, 0.30};
  params.adder = {8, 24, 0.30};
  for (const auto& inst : gen::make_suite(params))
    check_one(inst.circuit, "sweep/" + inst.name);

  EXPECT_GE(total, 120);
  EXPECT_GT(unsat_count, 20);
  // The lever is vacuous unless the sweep actually merges nodes.
  EXPECT_GT(shrunk, 20);
}

TEST(FuzzDifferential, SharingUnderTinyRingAndAggressiveFilters) {
  // Stress the overwrite path: a 16-slot ring with a generous LBD filter
  // floods the exchange, so imports race overwrites constantly. Verdicts
  // must still agree with sequential solving.
  Rng rng(0xF00D);
  for (int i = 0; i < 30; ++i) {
    const int vars = 30 + static_cast<int>(rng.next_below(31));
    const cnf::Cnf f =
        random_3sat(vars, static_cast<int>(vars * 4.3), rng.next_u64());
    const auto seq = sat::solve_cnf(f, sat::SolverConfig::kissat_like());
    sat::PortfolioOptions opt;
    opt.num_workers = 4;
    opt.sharing.enabled = true;
    opt.sharing.ring_capacity = 16;
    opt.sharing.max_lbd = 8;
    opt.sharing.max_size = 16;
    const auto r = sat::solve_portfolio(f, opt);
    EXPECT_EQ(r.status, seq.status) << i;
    if (r.status == sat::Status::kSat) {
      EXPECT_TRUE(check_model(f, r.model)) << i;
    }
  }
}

}  // namespace
}  // namespace csat
