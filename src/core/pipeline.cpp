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

/// Dispatches the post-encoding solve to the configured backend. The
/// portfolio keeps PipelineOptions::solver as its lead config so backends
/// agree on the answer and differ only in wall-clock time.
struct BackendResult {
  sat::SolveResult solve;
  std::size_t winner = std::numeric_limits<std::size_t>::max();
  std::uint64_t exported = 0;
  std::uint64_t imported = 0;
};

BackendResult run_backend(const cnf::Cnf& formula,
                          const PipelineOptions& options,
                          sat::ProofTracer* proof) {
  BackendResult out;
  if (options.backend == SolveBackend::kSingle) {
    out.solve = sat::solve_cnf(formula, options.solver, options.limits, proof);
    return out;
  }
  sat::PortfolioOptions popt = sat::make_portfolio_options(
      options.solver, options.portfolio_size, options.limits);
  popt.deterministic = options.portfolio_deterministic;
  popt.sharing = options.portfolio_sharing;
  popt.proof = proof;  // non-null => solve_portfolio fails loudly
  auto r = sat::solve_portfolio(formula, popt);
  out.solve.status = r.status;
  out.solve.stats = r.stats;
  out.solve.model = std::move(r.model);
  out.winner = r.winner;
  out.exported = r.clauses_exported;
  out.imported = r.clauses_imported;
  return out;
}

/// Optional CNF-level preprocessing; returns the formula to solve and a
/// model hook that maps a model of it back onto the original variables.
/// Neither formula is copied: the solve reads the caller's encoding, or the
/// simplifier's output in place.
struct EncodedFormula {
  const cnf::Cnf& encoded;
  std::optional<cnf::SimplifyResult> simplified;
  std::optional<sat::RemapTracer> remap;

  /// The formula to solve.
  [[nodiscard]] const cnf::Cnf& formula() const {
    return simplified.has_value() ? simplified->cnf : encoded;
  }

  /// True when preprocessing already refuted the formula (no solve needed).
  [[nodiscard]] bool proved_unsat() const {
    return simplified.has_value() && simplified->unsat;
  }

  /// Proof sink for the backend solve. The simplifier already emitted its
  /// steps in the encoded variable space; when it remapped, the solver's
  /// steps must be translated back through inverse_map so the combined
  /// stream refutes the encoded formula.
  [[nodiscard]] sat::ProofTracer* solver_proof(sat::ProofTracer* proof) {
    if (proof == nullptr || !simplified.has_value()) return proof;
    remap.emplace(*proof, simplified->inverse_map);
    return &*remap;
  }

  /// Maps a model of `formula` (dense, remapped variables when simplified)
  /// back onto the original variable space.
  [[nodiscard]] std::vector<bool> restore(std::vector<bool> model,
                                          std::uint32_t original_vars) const {
    if (simplified.has_value()) return simplified->extend_model(std::move(model));
    model.resize(original_vars);
    return model;
  }
};

EncodedFormula maybe_simplify(const cnf::Cnf& cnf,
                              const PipelineOptions& options,
                              PipelineResult& result) {
  EncodedFormula e{cnf, std::nullopt, std::nullopt};
  if (!options.cnf_simplify) return e;
  cnf::SimplifyParams sp = options.simplify_params;
  sp.proof = options.proof;
  e.simplified = cnf::simplify(cnf, sp);
  result.simplified = true;
  result.simplified_vars = e.simplified->cnf.num_vars();
  result.simplified_clauses = e.simplified->cnf.num_clauses();
  result.simplify_stats = e.simplified->stats;
  return e;
}

/// Circuit-native backends: no Tseitin encoding, no synthesis arm, no CNF
/// simplifier — the solver (or the circuit arm of the race) works on the
/// instance AIG as given, so the whole run is "solve" time.
PipelineResult run_circuit(const aig::Aig& instance,
                           const PipelineOptions& options) {
  CSAT_CHECK_MSG(options.proof == nullptr,
                 "circuit backends emit no DRAT stream: learnt constraints "
                 "are derived from implicit gate clauses the checker never "
                 "sees; use backend=single for checkable UNSAT");
  PipelineResult result;
  result.ands_before = result.ands_after = instance.num_live_ands();
  Stopwatch watch;
  if (options.backend == SolveBackend::kCircuit) {
    sat::CircuitSolver solver(
        sat::CircuitSolverConfig::from_cnf(options.solver));
    solver.load(instance);
    result.status = solver.solve(options.limits);
    result.circuit_stats = solver.stats();
    if (result.status == sat::Status::kSat) result.witness = solver.witness();
  } else {
    sat::CircuitRaceOptions ropt;
    ropt.solver = options.solver;
    ropt.circuit = sat::CircuitSolverConfig::from_cnf(options.solver);
    ropt.limits = options.limits;
    ropt.deterministic = options.portfolio_deterministic;
    auto r = sat::solve_circuit_race(instance, ropt);
    result.status = r.status;
    result.circuit_stats = r.circuit_stats;
    result.solver_stats = r.cnf_stats;
    if (r.winner != sat::CircuitRaceResult::Arm::kNone)
      result.portfolio_winner = static_cast<std::size_t>(r.winner);
    result.witness = std::move(r.witness);
  }
  result.solve_seconds = watch.seconds();
  return result;
}

PipelineResult run_baseline(const aig::Aig& instance,
                            const PipelineOptions& options) {
  PipelineResult result;
  Stopwatch watch;
  const auto enc = cnf::tseitin_encode(instance);
  result.ands_before = result.ands_after = instance.num_live_ands();
  result.cnf_vars = enc.cnf.num_vars();
  result.cnf_clauses = enc.cnf.num_clauses();
  if (enc.trivially_sat) {
    result.preprocess_seconds = watch.seconds();
    result.status = sat::Status::kSat;
    result.witness.assign(instance.num_pis(), false);
    return result;
  }
  auto ef = maybe_simplify(enc.cnf, options, result);
  result.preprocess_seconds = watch.seconds();
  if (ef.proved_unsat()) {
    result.status = sat::Status::kUnsat;
    return result;
  }
  watch.restart();
  const auto r =
      run_backend(ef.formula(), options, ef.solver_proof(options.proof));
  result.solve_seconds = watch.seconds();
  result.status = r.solve.status;
  result.solver_stats = r.solve.stats;
  result.portfolio_winner = r.winner;
  result.clauses_exported = r.exported;
  result.clauses_imported = r.imported;
  if (r.solve.status == sat::Status::kSat) {
    const auto model = ef.restore(r.solve.model, enc.cnf.num_vars());
    result.witness = cnf::witness_from_model(instance, enc, model);
  }
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
  watch.restart();
  auto ef = maybe_simplify(p.cnf, options, result);
  result.preprocess_seconds += watch.seconds();
  if (ef.proved_unsat()) {
    result.status = sat::Status::kUnsat;
    return result;
  }
  watch.restart();
  const auto r =
      run_backend(ef.formula(), options, ef.solver_proof(options.proof));
  result.solve_seconds = watch.seconds();
  result.status = r.solve.status;
  result.solver_stats = r.solve.stats;
  result.portfolio_winner = r.winner;
  result.clauses_exported = r.exported;
  result.clauses_imported = r.imported;
  if (r.solve.status == sat::Status::kSat) {
    const auto model = ef.restore(r.solve.model, p.cnf.num_vars());
    result.witness = lut::witness_from_model(p.netlist, p.encoding_info, model);
  }
  return result;
}

PipelineResult dispatch(const aig::Aig& instance,
                        const PipelineOptions& options) {
  if (options.backend == SolveBackend::kCircuit ||
      options.backend == SolveBackend::kCircuitRace)
    return run_circuit(instance, options);
  if (options.mode == PipelineMode::kBaseline)
    return run_baseline(instance, options);
  return run_synthesis_arm(instance, options);
}

}  // namespace

PipelineResult solve_instance(const aig::Aig& instance,
                              const PipelineOptions& options) {
  PipelineResult result = dispatch(instance, options);
  // A SAT verdict leaves only with a witness that sets some PO of the
  // instance itself: this covers model restoration (reconstruction stack,
  // LUT and Tseitin decoding) on every arm, not just the solver's model.
  if (result.status == sat::Status::kSat) {
    CSAT_CHECK_MSG(result.witness.size() == instance.num_pis(),
                   "solve_instance: witness does not cover the instance PIs");
    const std::vector<bool> pos = aig::evaluate(instance, result.witness);
    CSAT_CHECK_MSG(std::find(pos.begin(), pos.end(), true) != pos.end(),
                   "solve_instance: SAT witness sets no PO of the instance");
  }
  return result;
}

}  // namespace csat::core
