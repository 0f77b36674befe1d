#ifndef CSAT_CORE_PIPELINE_H
#define CSAT_CORE_PIPELINE_H

/// \file pipeline.h
/// End-to-end CSAT solving pipelines — the experimental arms of the paper's
/// evaluation (Fig. 4 and Fig. 5):
///
///   kBaseline   — direct Tseitin encoding, no preprocessing (Fig. 4
///                 "Baseline").
///   kComp       — Eén-Mishchenko-Sörensson-style circuit preprocessing:
///                 fixed synthesis script + *size*-oriented (area) LUT
///                 mapping (Fig. 4 "Comp.").
///   kOurs       — the paper's framework: RL policy + branching-cost
///                 mapping (Fig. 4/5 "Ours"). Needs a trained DqnAgent.
///   kOursRandom — random synthesis policy, branching-cost mapping (Fig. 5
///                 "w/o RL").
///   kOursAreaMapper — RL policy, conventional area mapper (Fig. 5
///                 "C. Mapper").
///
/// Every run reports status, phase timings and solver statistics so the
/// benchmark harness can assemble the paper's cactus curves and totals.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "aig/aig.h"
#include "cnf/simplify.h"
#include "core/preprocessor.h"
#include "rl/dqn.h"
#include "sat/portfolio.h"
#include "sat/solver.h"

namespace csat::core {

enum class PipelineMode {
  kBaseline,
  kComp,
  kOurs,
  kOursRandom,
  kOursAreaMapper,
};

[[nodiscard]] const char* to_string(PipelineMode mode);

/// How the instance is solved after preprocessing (solve_stage below). The
/// first two backends solve the encoded CNF; the circuit backends skip the
/// CNF encoding entirely and run sat/circuit_solver.h directly on the
/// *original* instance AIG (PipelineMode synthesis arms and the CNF
/// simplifier do not apply — cnf_vars/cnf_clauses stay 0 in the result).
enum class SolveBackend {
  kSingle,       ///< one solver, PipelineOptions::solver config
  kPortfolio,    ///< diversified multi-threaded race (sat/portfolio.h)
  kCircuit,      ///< circuit-native CDCL on the AIG (sat/circuit_solver.h)
  kCircuitRace,  ///< circuit arm races the Tseitin+CNF arm, first wins
};

[[nodiscard]] const char* to_string(SolveBackend backend);

/// True for the backends that solve the AIG instead of its CNF encoding.
[[nodiscard]] constexpr bool is_circuit_backend(SolveBackend backend) {
  return backend == SolveBackend::kCircuit ||
         backend == SolveBackend::kCircuitRace;
}

struct PipelineOptions {
  PipelineMode mode = PipelineMode::kOurs;
  sat::SolverConfig solver = sat::SolverConfig::kissat_like();
  sat::Limits limits;  ///< per-instance budget (the paper's 1000 s cap)
  SolveBackend backend = SolveBackend::kSingle;
  /// Worker count for kPortfolio; configs come from sat::default_portfolio
  /// seeded by solver.seed with solver as the lead (index-0) config.
  std::size_t portfolio_size = 4;
  /// Cross-worker learnt-clause sharing for kPortfolio (glue threshold,
  /// size cap, ring capacity; see sat/portfolio.h).
  sat::ClauseSharingOptions portfolio_sharing;
  int max_steps = 10;  ///< T
  bool normalize = true;
  /// Run the CNF-level preprocessor (SatELite/NiVER-style plus probing and
  /// variable remapping; cnf/simplify.h) on the encoded formula before
  /// solving — the "default CNF-based preprocessing" the paper keeps
  /// enabled underneath its framework. On by default; the preprocessor's
  /// fixed step budgets make it safe on every instance.
  bool cnf_simplify = true;
  /// Trained agent for the RL arms (kOurs / kOursAreaMapper); when null
  /// those arms fall back to the fixed compress2 script (documented).
  const rl::DqnAgent* agent = nullptr;
  std::uint64_t seed = 1;  ///< randomness for kOursRandom
  /// Optional DRAT proof sink (sat/proof.h; not owned). Steps are emitted
  /// in the variable space of the *encoded* CNF: the simplifier traces its
  /// rewrites before remapping, and the solver's steps are translated back
  /// through sat::RemapTracer, so the whole stream is one checkable
  /// refutation of the formula reported in cnf_vars/cnf_clauses. Requires
  /// backend == kSingle: solve_stage aborts on any other backend.
  sat::ProofTracer* proof = nullptr;
};

struct PipelineResult {
  sat::Status status = sat::Status::kUnknown;
  double preprocess_seconds = 0.0;
  double solve_seconds = 0.0;
  [[nodiscard]] double total_seconds() const {
    return preprocess_seconds + solve_seconds;
  }
  sat::Stats solver_stats;
  /// Winning config index when backend == kPortfolio and a worker produced
  /// the verdict; for kCircuitRace, 0 = circuit arm, 1 = CNF arm; SIZE_MAX
  /// otherwise (kSingle, kCircuit, timeouts, and trivially-SAT early exits
  /// that never reach a solver).
  std::size_t portfolio_winner = std::numeric_limits<std::size_t>::max();
  /// Circuit-native backend counters (kCircuit, or kCircuitRace's circuit
  /// arm): gate propagations, justification decisions, frontier gauges.
  /// Zero-initialized for the CNF backends. For kCircuitRace, solver_stats
  /// carries the CNF arm's counters alongside.
  sat::CircuitStats circuit_stats;
  /// Clause-sharing totals over all portfolio workers (zero for kSingle or
  /// when sharing was disabled); solver_stats carries the winner's share.
  std::uint64_t clauses_exported = 0;
  std::uint64_t clauses_imported = 0;
  /// Size of the *encoded* CNF, before any CNF-level preprocessing (so the
  /// encoding comparison across arms is independent of the simplifier).
  std::size_t cnf_vars = 0;
  std::size_t cnf_clauses = 0;
  /// CNF preprocessing report (cnf_simplify): the formula actually handed
  /// to the backend lives on simplified_vars (dense, remapped) variables.
  bool simplified = false;
  std::size_t simplified_vars = 0;
  std::size_t simplified_clauses = 0;
  cnf::SimplifyStats simplify_stats;
  std::size_t ands_before = 0;
  std::size_t ands_after = 0;
  std::size_t num_luts = 0;
  std::vector<synth::SynthOp> recipe;
  /// PI assignment witnessing SAT (empty otherwise). solve_instance checks
  /// it against the instance before returning: it sets some PO to 1.
  std::vector<bool> witness;
};

/// Runs one instance through the selected pipeline arm. A SAT verdict whose
/// witness does not set some PO of \p instance is a CSAT_CHECK failure,
/// never a returned result.
PipelineResult solve_instance(const aig::Aig& instance,
                              const PipelineOptions& options);

/// The solve stage: everything between an encoded instance and a verdict.
/// Every arm of solve_instance and every SolveServer solve runs through it,
/// so both entry points make the same calls in the same order.
///
/// The CNF backends (kSingle, kPortfolio) read \p formula. When
/// options.cnf_simplify is set they run cnf::simplify first; its DRAT
/// steps go to options.proof, and the solver's steps are translated back
/// through sat::RemapTracer, so the stream refutes \p formula itself.
/// options.limits.max_seconds bounds simplify and solve together: simplify
/// stops early when it runs out, and the solver gets the rest. On
/// SAT they return a model over \p formula's variables. The circuit
/// backends read \p circuit, never simplify, and on SAT return a PI
/// witness of \p circuit. Only the pointer the backend reads may be null.
///
/// Fills \p result's verdict, counters, portfolio winner, clause-sharing
/// totals and simplify report. The simplify time is added to
/// preprocess_seconds; solve_seconds is set. The returned answer is not
/// checked here: each caller checks it against its own instance.
std::vector<bool> solve_stage(const cnf::Cnf* formula, const aig::Aig* circuit,
                              const PipelineOptions& options,
                              PipelineResult& result);

/// True when \p witness assigns every PI of \p instance and sets some PO
/// to 1: the check a SAT verdict passes before it leaves solve_instance or
/// SolveServer.
[[nodiscard]] bool witness_sets_some_po(const aig::Aig& instance,
                                        const std::vector<bool>& witness);

}  // namespace csat::core

#endif  // CSAT_CORE_PIPELINE_H
