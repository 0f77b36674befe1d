#include "arms.h"

#include <algorithm>
#include <optional>

#include "aig/simulate.h"
#include "cnf/cnf_to_aig.h"
#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "gen/miter.h"
#include "gen/suite.h"
#include "lut/lut_to_cnf.h"
#include "lut/mapper.h"
#include "rl/embedding.h"
#include "rl/features.h"
#include "rl/policy.h"
#include "rl/trainer.h"
#include "sat/circuit_solver.h"
#include "sat/portfolio.h"

namespace perfbench {

using namespace csat;

namespace {

enum class Family { kMul, kAdd, kAlu, kPar, kRnd };
enum class Kind { kEq, kBug, kAtpg };

struct Stratum {
  Family family;
  Kind kind;
  int width;
};

// One instance per stratum, in the Fig. 4 family mix (gen::make_test_suite:
// adders dominate, commuted multipliers are the heavy tail, 40% bugged LEC,
// 20% ATPG) at widths that
// let all three arms finish a pass in about two seconds on one core. Adder
// equivalence stays at 48 and 64 bits, where the circuit backend still
// finishes but already loses to CNF. ALU and random-XOR equivalence miters
// strash to constants, so those families appear only bugged or as ATPG.
// Widths are fixed per stratum: with a width band, which widths a seed drew
// moved a pass's total by more than the benchmark's bounds allow. Bugged
// and ATPG adders stay at 48 bits or less: from 56 bits up, the circuit
// backend needs anywhere from 4 ms to 1 s on them depending on the bug.
constexpr Stratum kPaperStrata[] = {
    {Family::kMul, Kind::kEq, 6},    {Family::kMul, Kind::kEq, 5},
    {Family::kMul, Kind::kBug, 5},   {Family::kMul, Kind::kAtpg, 6},
    {Family::kAdd, Kind::kEq, 64},   {Family::kAdd, Kind::kEq, 48},
    {Family::kAdd, Kind::kBug, 32},  {Family::kAdd, Kind::kBug, 40},
    {Family::kAdd, Kind::kBug, 48},  {Family::kAdd, Kind::kAtpg, 32},
    {Family::kAdd, Kind::kAtpg, 40}, {Family::kAdd, Kind::kAtpg, 48},
    {Family::kAlu, Kind::kBug, 32},  {Family::kAlu, Kind::kAtpg, 32},
    {Family::kPar, Kind::kEq, 32},   {Family::kPar, Kind::kBug, 32},
    {Family::kPar, Kind::kAtpg, 32}, {Family::kRnd, Kind::kBug, 10},
    {Family::kRnd, Kind::kBug, 12},  {Family::kRnd, Kind::kAtpg, 10},
};

gen::SuiteParams stratum_params(const Stratum& s, std::uint64_t seed) {
  gen::SuiteParams p;
  p.count = 1;
  p.seed = seed;
  p.atpg_fraction = s.kind == Kind::kAtpg ? 1.0 : 0.0;
  p.bug_fraction = s.kind == Kind::kBug ? 1.0 : 0.0;
  for (gen::FamilyRange* r :
       {&p.multiplier, &p.adder, &p.alu, &p.parity, &p.random_xor})
    r->weight = 0.0;
  gen::FamilyRange* chosen = nullptr;
  switch (s.family) {
    case Family::kMul: chosen = &p.multiplier; break;
    case Family::kAdd: chosen = &p.adder; break;
    case Family::kAlu: chosen = &p.alu; break;
    case Family::kPar: chosen = &p.parity; break;
    case Family::kRnd: chosen = &p.random_xor; break;
  }
  *chosen = gen::FamilyRange{s.width, s.width, 1.0};
  return p;
}

cnf::Cnf pigeonhole(int holes) {
  const int pigeons = holes + 1;
  cnf::Cnf f;
  f.add_vars(static_cast<std::uint32_t>(pigeons * holes));
  const auto var = [&](int p, int h) {
    return static_cast<std::uint32_t>(p * holes + h);
  };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<cnf::Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(cnf::Lit::make(var(p, h), false));
    f.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        f.add_binary(cnf::Lit::make(var(p1, h), true),
                     cnf::Lit::make(var(p2, h), true));
  return f;
}

const char* op_span(synth::SynthOp op) {
  switch (op) {
    case synth::SynthOp::kRewrite: return "synth.rewrite";
    case synth::SynthOp::kRefactor: return "synth.refactor";
    case synth::SynthOp::kBalance: return "synth.balance";
    case synth::SynthOp::kResub: return "synth.resub";
    case synth::SynthOp::kEnd: break;
  }
  return "synth.end";
}

/// CNF simplify -> solve -> model restore, shared by all three CNF arms;
/// \p to_witness maps a model of the encoded formula onto the PIs.
template <class ToWitness>
void solve_encoded(const cnf::Cnf& encoded, Tracer& tracer, std::uint64_t id,
                   LayerCounts& counts, ArmRecord& out, ToWitness to_witness) {
  std::optional<cnf::SimplifyResult> simplified;
  {
    ScopedSpan span(tracer, "cnf.simplify", id);
    simplified.emplace(cnf::simplify(encoded, cnf::SimplifyParams{}));
  }
  counts.simplify_in_vars += encoded.num_vars();
  counts.simplify_out_vars += simplified->cnf.num_vars();
  if (simplified->unsat) {
    out.status = sat::Status::kUnsat;
    return;
  }
  sat::SolveResult r;
  {
    ScopedSpan span(tracer, "sat.solve", id);
    sat::Limits limits;
    limits.max_conflicts = kConflictBudget;
    r = sat::solve_cnf(simplified->cnf, sat::SolverConfig::kissat_like(), limits);
  }
  out.status = r.status;
  out.decisions = r.stats.decisions;
  out.conflicts = r.stats.conflicts;
  counts.sat_decisions += r.stats.decisions;
  counts.sat_conflicts += r.stats.conflicts;
  counts.sat_propagations += r.stats.propagations;
  if (r.status == sat::Status::kSat) {
    ScopedSpan span(tracer, "cnf.restore", id);
    out.witness = to_witness(simplified->extend_model(std::move(r.model)));
  }
}

void replay_baseline(const BenchInstance& inst, Tracer& tracer,
                     std::uint64_t id, LayerCounts& counts, ArmRecord& out) {
  std::optional<cnf::TseitinResult> enc;
  {
    ScopedSpan span(tracer, "cnf.encode", id);
    enc.emplace(cnf::tseitin_encode(inst.circuit));
  }
  out.ands_after = inst.circuit.num_live_ands();
  out.cnf_vars = enc->cnf.num_vars();
  out.cnf_clauses = enc->cnf.num_clauses();
  counts.cnf_vars += out.cnf_vars;
  counts.cnf_clauses += out.cnf_clauses;
  if (enc->trivially_sat) {
    out.status = sat::Status::kSat;
    out.witness.assign(inst.circuit.num_pis(), false);
    return;
  }
  solve_encoded(enc->cnf, tracer, id, counts, out,
                [&](const std::vector<bool>& model) {
                  return cnf::witness_from_model(inst.circuit, *enc, model);
                });
}

// Algorithm 1 as core::Preprocessor::run executes it, then the pipeline's
// CNF tail (core/pipeline.cpp).
void replay_synthesis(const BenchInstance& inst, Arm arm,
                      const rl::DqnAgent* agent, Tracer& tracer,
                      std::uint64_t id, LayerCounts& counts, ArmRecord& out) {
  const core::PipelineOptions options = arm_options(arm, agent);
  rl::FixedRecipePolicy fixed(synth::compress2_recipe());
  std::optional<rl::DqnPolicy> dqn;
  rl::Policy* policy = &fixed;
  if (arm == Arm::kOurs && agent != nullptr) {
    dqn.emplace(*agent);
    policy = &*dqn;
  }

  aig::Aig g0;
  {
    ScopedSpan span(tracer, "synth.normalize", id);
    g0 = aig::cleanup_copy(inst.circuit);
    if (options.normalize)
      g0 = synth::apply_recipe(g0, synth::normalization_recipe());
  }
  std::vector<double> embedding;
  {
    ScopedSpan span(tracer, "rl.state", id);
    embedding = rl::functional_embedding(g0);
  }
  aig::Aig g;
  {
    ScopedSpan span(tracer, "synth.normalize", id);
    g = aig::cleanup_copy(g0);
  }
  policy->begin();
  for (int t = 0; t < options.max_steps; ++t) {
    std::vector<double> state;
    {
      ScopedSpan span(tracer, "rl.state", id);
      state = rl::extract_features(g, g0);
      state.insert(state.end(), embedding.begin(), embedding.end());
    }
    synth::SynthOp action;
    {
      ScopedSpan span(tracer, "rl.infer", id);
      action = policy->next_op(state);
    }
    if (arm == Arm::kOurs) ++counts.rl_steps;
    if (action == synth::SynthOp::kEnd) break;
    const std::size_t before = g.num_ands();
    {
      ScopedSpan span(tracer, op_span(action), id);
      g = synth::apply_op(g, action);
    }
    const std::size_t after = g.num_ands();
    ++counts.synth_ops;
    if (after >= before) ++counts.synth_noops;
    counts.ands_removed += before > after ? before - after : 0;
    out.recipe.push_back(action);
  }
  out.ands_after = g.num_ands();

  lut::MapperParams mapper;
  mapper.cost = arm == Arm::kComp ? lut::CostKind::kArea : lut::CostKind::kBranching;
  std::optional<lut::MappingResult> mapped;
  {
    ScopedSpan span(tracer, "lut.map", id);
    mapped.emplace(lut::map_to_luts(g, mapper));
  }
  out.num_luts = mapped->num_luts;
  counts.luts += mapped->num_luts;
  counts.branching += static_cast<std::uint64_t>(mapped->total_branching);

  std::optional<lut::LutCnfResult> enc;
  {
    ScopedSpan span(tracer, "cnf.encode", id);
    enc.emplace(lut::lut_to_cnf(mapped->netlist));
  }
  out.cnf_vars = enc->cnf.num_vars();
  out.cnf_clauses = enc->cnf.num_clauses();
  counts.cnf_vars += out.cnf_vars;
  counts.cnf_clauses += out.cnf_clauses;
  if (enc->trivially_sat) {
    out.status = sat::Status::kSat;
    out.witness.assign(inst.circuit.num_pis(), false);
    return;
  }
  solve_encoded(enc->cnf, tracer, id, counts, out,
                [&](const std::vector<bool>& model) {
                  return lut::witness_from_model(mapped->netlist, *enc, model);
                });
}

void replay_circuit(const BenchInstance& inst, Arm arm, Tracer& tracer,
                    std::uint64_t id, LayerCounts& counts, ArmRecord& out) {
  const sat::SolverConfig cnf_config = sat::SolverConfig::kissat_like();
  sat::Limits limits;
  limits.max_conflicts = kConflictBudget;
  out.ands_after = inst.circuit.num_live_ands();
  if (arm == Arm::kCircuit) {
    ScopedSpan span(tracer, "circuit.solve", id);
    sat::CircuitSolver solver(sat::CircuitSolverConfig::from_cnf(cnf_config));
    solver.load(inst.circuit);
    out.status = solver.solve(limits);
    const sat::CircuitStats& s = solver.stats();
    out.decisions = s.decisions;
    out.conflicts = s.conflicts;
    counts.circuit_conflicts += s.conflicts;
    counts.circuit_propagations += s.propagations;
    counts.circuit_gate_propagations += s.gate_propagations;
    if (out.status == sat::Status::kSat) out.witness = solver.witness();
    return;
  }
  ScopedSpan span(tracer, "circuit.race", id);
  sat::CircuitRaceOptions ropt;
  ropt.solver = cnf_config;
  ropt.circuit = sat::CircuitSolverConfig::from_cnf(cnf_config);
  ropt.limits = limits;
  const sat::CircuitRaceResult r = sat::solve_circuit_race(inst.circuit, ropt);
  out.status = r.status;
  ++counts.race_runs;
  if (r.winner == sat::CircuitRaceResult::Arm::kCircuit) ++counts.race_circuit_wins;
  out.witness = r.witness;
}

}  // namespace

std::vector<BenchInstance> paper_draw(std::uint64_t seed) {
  std::vector<BenchInstance> out;
  std::uint64_t salt = 0;
  for (const Stratum& s : kPaperStrata) {
    const auto drawn = gen::make_suite(stratum_params(s, mix_seed(seed, ++salt)));
    for (const gen::Instance& inst : drawn) {
      BenchInstance b;
      b.name = inst.name + "_s" + std::to_string(salt);
      b.circuit = inst.circuit;
      b.must_be_unsat = s.kind == Kind::kEq;
      out.push_back(std::move(b));
    }
  }
  return out;
}

std::vector<BenchInstance> micro_families() {
  std::vector<BenchInstance> out;
  for (int width = 10; width <= 40; width += 2)
    out.push_back({"adder_miter_w" + std::to_string(width),
                   gen::make_adder_miter(width), true});
  for (int holes = 5; holes <= 8; ++holes)
    out.push_back({"pigeonhole_" + std::to_string(holes),
                   cnf::cnf_to_aig(pigeonhole(holes)), true});
  return out;
}

const char* arm_name(Arm arm) {
  switch (arm) {
    case Arm::kBaseline: return "baseline";
    case Arm::kComp: return "comp";
    case Arm::kOurs: return "ours";
    case Arm::kCircuit: return "circuit";
    case Arm::kCircuitRace: return "circuit_race";
  }
  return "?";
}

core::PipelineOptions arm_options(Arm arm, const rl::DqnAgent* agent) {
  core::PipelineOptions o;
  o.solver = sat::SolverConfig::kissat_like();
  o.limits.max_conflicts = kConflictBudget;
  o.max_steps = 6;
  o.agent = agent;
  switch (arm) {
    case Arm::kBaseline: o.mode = core::PipelineMode::kBaseline; break;
    case Arm::kComp: o.mode = core::PipelineMode::kComp; break;
    case Arm::kOurs: o.mode = core::PipelineMode::kOurs; break;
    case Arm::kCircuit: o.backend = core::SolveBackend::kCircuit; break;
    case Arm::kCircuitRace: o.backend = core::SolveBackend::kCircuitRace; break;
  }
  return o;
}

std::unique_ptr<rl::DqnAgent> train_agent() {
  rl::DqnConfig config;
  config.state_size = rl::kNumStateFeatures + rl::kEmbeddingDim;
  auto agent = std::make_unique<rl::DqnAgent>(config);
  rl::TrainConfig tcfg;
  tcfg.episodes = 100;
  tcfg.env.max_steps = 6;
  tcfg.env.solve_limits.max_conflicts = 30000;
  (void)rl::train_agent(*agent, gen::make_training_suite(24, 7), tcfg);
  return agent;
}

bool witness_satisfies(const aig::Aig& g, const std::vector<bool>& witness) {
  if (witness.size() != g.num_pis()) return false;
  const std::vector<bool> pos = aig::evaluate(g, witness);
  return std::find(pos.begin(), pos.end(), true) != pos.end();
}

bool ArmRecord::same_decomposition(const ArmRecord& o, Arm arm) const {
  if (arm == Arm::kCircuitRace) return status == o.status;
  return status == o.status && recipe == o.recipe && ands_after == o.ands_after &&
         num_luts == o.num_luts && cnf_vars == o.cnf_vars &&
         cnf_clauses == o.cnf_clauses && decisions == o.decisions &&
         conflicts == o.conflicts;
}

ArmRecord record_of(const core::PipelineResult& r, Arm arm) {
  ArmRecord rec;
  rec.status = r.status;
  rec.recipe = r.recipe;
  rec.ands_after = r.ands_after;
  rec.num_luts = r.num_luts;
  rec.cnf_vars = r.cnf_vars;
  rec.cnf_clauses = r.cnf_clauses;
  if (arm == Arm::kCircuit) {
    rec.decisions = r.circuit_stats.decisions;
    rec.conflicts = r.circuit_stats.conflicts;
  } else if (arm != Arm::kCircuitRace) {
    rec.decisions = r.solver_stats.decisions;
    rec.conflicts = r.solver_stats.conflicts;
  }
  return rec;
}

ArmRecord replay(const BenchInstance& instance, Arm arm,
                 const rl::DqnAgent* agent, Tracer& tracer, std::uint64_t id,
                 LayerCounts& counts) {
  ArmRecord out;
  {
    ScopedSpan span(tracer, arm_name(arm), id);
    switch (arm) {
      case Arm::kBaseline:
        replay_baseline(instance, tracer, id, counts, out);
        break;
      case Arm::kComp:
      case Arm::kOurs:
        replay_synthesis(instance, arm, agent, tracer, id, counts, out);
        break;
      case Arm::kCircuit:
      case Arm::kCircuitRace:
        replay_circuit(instance, arm, tracer, id, counts, out);
        break;
    }
  }
  if (out.status == sat::Status::kSat) {
    ScopedSpan span(tracer, "verify", id);
    ++counts.witnesses;
    out.witness_ok = witness_satisfies(instance.circuit, out.witness);
  }
  return out;
}

}  // namespace perfbench
