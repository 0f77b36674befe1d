#include "core/pipeline.h"

#include <algorithm>

#include "aig/simulate.h"
#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "sat/portfolio.h"
#include "sat/proof.h"

namespace csat::core {

const char* to_string(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kBaseline:
      return "Baseline";
    case PipelineMode::kComp:
      return "Comp.";
    case PipelineMode::kOurs:
      return "Ours";
    case PipelineMode::kOursRandom:
      return "w/o RL";
    case PipelineMode::kOursAreaMapper:
      return "C. Mapper";
  }
  return "?";
}

const char* to_string(SolveBackend backend) {
  switch (backend) {
    case SolveBackend::kSingle:
      return "single";
    case SolveBackend::kPortfolio:
      return "portfolio";
    case SolveBackend::kCircuit:
      return "circuit";
    case SolveBackend::kCircuitRace:
      return "circuit-race";
  }
  return "?";
}

namespace {

/// The CNF backends: optional cnf::simplify, then one solver or the
/// portfolio, then the model mapped back onto \p formula's variables.
/// Neither formula is copied: the solve reads the caller's encoding, or the
/// simplifier's output in place. The portfolio keeps options.solver as its
/// lead config, so the backends agree on the answer and differ only in
/// wall-clock time.
std::vector<bool> solve_formula(const cnf::Cnf& formula,
                                const PipelineOptions& options,
                                PipelineResult& result) {
  Stopwatch watch;
  std::optional<cnf::SimplifyResult> simplified;
  std::optional<sat::RemapTracer> remap;
  sat::ProofTracer* proof = options.proof;
  if (options.cnf_simplify) {
    // The stage's wall-clock budget covers simplify too: past it, the
    // simplifier stops with a partial, equisatisfiable formula.
    cnf::SimplifyParams sp;
    sp.max_seconds = options.limits.max_seconds;
    sp.proof = options.proof;
    simplified = cnf::simplify(formula, sp);
    result.simplified = true;
    result.simplified_vars = simplified->cnf.num_vars();
    result.simplified_clauses = simplified->cnf.num_clauses();
    result.simplify_stats = simplified->stats;
    // The simplifier traced its steps in formula's variable space; the
    // solver's steps are translated back through inverse_map so the
    // combined stream refutes formula.
    if (proof != nullptr)
      proof = &remap.emplace(*proof, simplified->inverse_map);
  }
  const double simplify_seconds = watch.seconds();
  result.preprocess_seconds += simplify_seconds;
  if (simplified.has_value() && simplified->unsat) {
    result.status = sat::Status::kUnsat;
    return {};
  }
  const cnf::Cnf& to_solve = simplified.has_value() ? simplified->cnf : formula;
  // One wall-clock budget for the stage: the solver gets what simplify
  // left of it (an infinite budget stays infinite).
  sat::Limits limits = options.limits;
  limits.max_seconds = std::max(0.0, limits.max_seconds - simplify_seconds);

  watch.restart();
  sat::SolveResult solve;
  if (options.backend == SolveBackend::kSingle) {
    solve = sat::solve_cnf(to_solve, options.solver, limits, proof);
  } else {
    sat::PortfolioOptions popt = sat::make_portfolio_options(
        options.solver, options.portfolio_size, limits);
    popt.sharing = options.portfolio_sharing;
    auto r = sat::solve_portfolio(to_solve, popt);
    solve.status = r.status;
    solve.stats = r.stats;
    solve.model = std::move(r.model);
    result.portfolio_winner = r.winner;
    result.clauses_exported = r.clauses_exported;
    result.clauses_imported = r.clauses_imported;
  }
  result.solve_seconds = watch.seconds();
  result.status = solve.status;
  result.solver_stats = solve.stats;
  if (solve.status != sat::Status::kSat) return {};
  if (simplified.has_value())
    return simplified->extend_model(std::move(solve.model));
  solve.model.resize(formula.num_vars());
  return std::move(solve.model);
}

/// The circuit backends: no Tseitin encoding, no CNF simplifier — the
/// solver (or the circuit arm of the race) works on \p circuit as given.
std::vector<bool> solve_circuit(const aig::Aig& circuit,
                                const PipelineOptions& options,
                                PipelineResult& result) {
  Stopwatch watch;
  std::vector<bool> witness;
  if (options.backend == SolveBackend::kCircuit) {
    sat::CircuitSolver solver(
        sat::CircuitSolverConfig::from_cnf(options.solver));
    solver.load(circuit);
    result.status = solver.solve(options.limits);
    result.circuit_stats = solver.stats();
    if (result.status == sat::Status::kSat) witness = solver.witness();
  } else {
    sat::CircuitRaceOptions ropt;
    ropt.solver = options.solver;
    ropt.circuit = sat::CircuitSolverConfig::from_cnf(options.solver);
    ropt.limits = options.limits;
    auto r = sat::solve_circuit_race(circuit, ropt);
    result.status = r.status;
    result.circuit_stats = r.circuit_stats;
    result.solver_stats = r.cnf_stats;
    if (r.winner != sat::CircuitRaceResult::Arm::kNone)
      result.portfolio_winner = static_cast<std::size_t>(r.winner);
    witness = std::move(r.witness);
  }
  result.solve_seconds = watch.seconds();
  return witness;
}

/// The circuit arm: no encoding and no synthesis, so the whole run is
/// solve time.
PipelineResult run_circuit(const aig::Aig& instance,
                           const PipelineOptions& options) {
  PipelineResult result;
  result.ands_before = result.ands_after = instance.num_live_ands();
  result.witness = solve_stage(nullptr, &instance, options, result);
  return result;
}

PipelineResult run_baseline(const aig::Aig& instance,
                            const PipelineOptions& options) {
  PipelineResult result;
  Stopwatch watch;
  const auto enc = cnf::tseitin_encode(instance);
  result.preprocess_seconds = watch.seconds();
  result.ands_before = result.ands_after = instance.num_live_ands();
  result.cnf_vars = enc.cnf.num_vars();
  result.cnf_clauses = enc.cnf.num_clauses();
  if (enc.trivially_sat) {
    result.status = sat::Status::kSat;
    result.witness.assign(instance.num_pis(), false);
    return result;
  }
  const auto model = solve_stage(&enc.cnf, nullptr, options, result);
  if (result.status == sat::Status::kSat)
    result.witness = cnf::witness_from_model(instance, enc, model);
  return result;
}

PipelineResult run_synthesis_arm(const aig::Aig& instance,
                                 const PipelineOptions& options) {
  // Select the policy and the mapper cost for the preprocessing arm.
  PreprocessOptions popt;
  popt.max_steps = options.max_steps;
  popt.normalize = options.normalize;
  popt.mapper.cost = options.mode == PipelineMode::kComp ||
                             options.mode == PipelineMode::kOursAreaMapper
                         ? lut::CostKind::kArea
                         : lut::CostKind::kBranching;

  rl::FixedRecipePolicy fixed(synth::compress2_recipe());
  rl::RandomPolicy random(options.seed);
  std::optional<rl::DqnPolicy> dqn;
  rl::Policy* policy = &fixed;
  switch (options.mode) {
    case PipelineMode::kComp:
      policy = &fixed;
      break;
    case PipelineMode::kOursRandom:
      policy = &random;
      break;
    case PipelineMode::kOurs:
    case PipelineMode::kOursAreaMapper:
      if (options.agent != nullptr) {
        dqn.emplace(*options.agent);
        policy = &*dqn;
      }
      break;
    case PipelineMode::kBaseline:
      CSAT_CHECK_MSG(false, "unreachable");
  }

  PipelineResult result;
  Stopwatch watch;
  const Preprocessor pre(popt);
  const PreprocessResult p = pre.run(instance, *policy);
  result.preprocess_seconds = watch.seconds();
  result.recipe = p.recipe;
  result.ands_before = p.ands_before;
  result.ands_after = p.ands_after;
  result.num_luts = p.num_luts;
  result.cnf_vars = p.cnf.num_vars();
  result.cnf_clauses = p.cnf.num_clauses();

  if (p.trivially_sat) {
    result.status = sat::Status::kSat;
    result.witness.assign(instance.num_pis(), false);
    return result;
  }
  const auto model = solve_stage(&p.cnf, nullptr, options, result);
  if (result.status == sat::Status::kSat)
    result.witness = lut::witness_from_model(p.netlist, p.encoding_info, model);
  return result;
}

PipelineResult dispatch(const aig::Aig& instance,
                        const PipelineOptions& options) {
  if (is_circuit_backend(options.backend))
    return run_circuit(instance, options);
  if (options.mode == PipelineMode::kBaseline)
    return run_baseline(instance, options);
  return run_synthesis_arm(instance, options);
}

}  // namespace

std::vector<bool> solve_stage(const cnf::Cnf* formula, const aig::Aig* circuit,
                              const PipelineOptions& options,
                              PipelineResult& result) {
  // A DRAT stream certifies one solver's derivation. A portfolio winner's
  // run depends on a wall-clock race and interleaves clauses derived in
  // other workers, and the circuit backends learn from implicit gate
  // clauses the checker never sees.
  CSAT_CHECK_MSG(options.proof == nullptr ||
                     options.backend == SolveBackend::kSingle,
                 "proof emission requires the sequential backend "
                 "(SolveBackend::kSingle): no other backend yields a "
                 "checkable DRAT derivation");
  if (is_circuit_backend(options.backend)) {
    CSAT_CHECK_MSG(circuit != nullptr,
                   "solve_stage: circuit backend without a circuit");
    return solve_circuit(*circuit, options, result);
  }
  CSAT_CHECK_MSG(formula != nullptr,
                 "solve_stage: CNF backend without a formula");
  return solve_formula(*formula, options, result);
}

bool witness_sets_some_po(const aig::Aig& instance,
                          const std::vector<bool>& witness) {
  if (witness.size() != instance.num_pis()) return false;
  const std::vector<bool> pos = aig::evaluate(instance, witness);
  return std::find(pos.begin(), pos.end(), true) != pos.end();
}

PipelineResult solve_instance(const aig::Aig& instance,
                              const PipelineOptions& options) {
  PipelineResult result = dispatch(instance, options);
  // A SAT verdict leaves only with a witness that sets some PO of the
  // instance itself: this covers model restoration (reconstruction stack,
  // LUT and Tseitin decoding) on every arm, not just the solver's model.
  if (result.status == sat::Status::kSat)
    CSAT_CHECK_MSG(witness_sets_some_po(instance, result.witness),
                   "solve_instance: SAT witness sets no PO of the instance");
  return result;
}

}  // namespace csat::core
