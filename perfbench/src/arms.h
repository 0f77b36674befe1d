#ifndef PERFBENCH_ARMS_H
#define PERFBENCH_ARMS_H

// Instances, solve arms, output checks and the traced call-by-call replay
// shared by the batch workloads (paper_suite, circuit_cdcl) and the
// server_mix reference verdicts.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aig/aig.h"
#include "core/pipeline.h"
#include "harness.h"
#include "rl/dqn.h"
#include "sat/solver.h"
#include "synth/recipe.h"

namespace perfbench {

struct BenchInstance {
  std::string name;
  csat::aig::Aig circuit;
  /// lec_*_eq miters and pigeonhole formulas are UNSAT by construction.
  bool must_be_unsat = false;
};

/// The Fig. 4 LEC/ATPG mix of gen::make_test_suite, scaled down and drawn
/// one per stratum (family x kind x width) through gen::make_suite, so
/// every seed yields the same amount of each kind of work. Equivalence
/// miters do not depend on the seed; bugs, fault sites and random circuits
/// do.
std::vector<BenchInstance> paper_draw(std::uint64_t seed);

/// The sat_micro circuit families: adder-equivalence miters and pigeonhole
/// formulas bridged to AIGs.
std::vector<BenchInstance> micro_families();

enum class Arm { kBaseline, kComp, kOurs, kCircuit, kCircuitRace };
[[nodiscard]] const char* arm_name(Arm arm);

/// Per-solve conflict budget. Every instance in every workload solves well
/// inside it, so a run's outcomes never depend on wall-clock caps.
inline constexpr std::uint64_t kConflictBudget = 2'000'000;

/// PipelineOptions for \p arm: kissat-like preset, one thread per arm
/// (the circuit race runs its two arms on two threads), T = 6 as in
/// bench/fig4_runtime.
[[nodiscard]] csat::core::PipelineOptions arm_options(
    Arm arm, const csat::rl::DqnAgent* agent);

/// DQN agent trained as bench/fig4_runtime trains it (100 episodes on the
/// easy training suite). Deterministic: rewards count solver decisions.
std::unique_ptr<csat::rl::DqnAgent> train_agent();

/// True when \p witness drives some primary output of \p g to 1.
[[nodiscard]] bool witness_satisfies(const csat::aig::Aig& g,
                                     const std::vector<bool>& witness);

/// What the traced replay must reproduce from core::solve_instance.
struct ArmRecord {
  csat::sat::Status status = csat::sat::Status::kUnknown;
  std::vector<csat::synth::SynthOp> recipe;
  std::size_t ands_after = 0;
  std::size_t num_luts = 0;
  std::size_t cnf_vars = 0;
  std::size_t cnf_clauses = 0;
  std::uint64_t decisions = 0;  ///< CNF solver, or circuit solver for kCircuit
  std::uint64_t conflicts = 0;
  /// replay() only: the SAT witness, and whether it satisfies the original
  /// AIG.
  std::vector<bool> witness;
  bool witness_ok = true;

  /// Equal on everything the decomposition check compares. The race's
  /// counters depend on thread timing, so only its verdict is compared.
  [[nodiscard]] bool same_decomposition(const ArmRecord& o, Arm arm) const;
};

[[nodiscard]] ArmRecord record_of(const csat::core::PipelineResult& r, Arm arm);

/// Work counts of the layers, accumulated by replay().
struct LayerCounts {
  std::uint64_t synth_ops = 0;
  std::uint64_t synth_noops = 0;  ///< ops that removed no AND node
  std::uint64_t ands_removed = 0;
  std::uint64_t rl_steps = 0;     ///< DQN policy decisions (Ours)
  std::uint64_t luts = 0;
  std::uint64_t branching = 0;
  std::uint64_t cnf_vars = 0;
  std::uint64_t cnf_clauses = 0;
  std::uint64_t simplify_in_vars = 0;
  std::uint64_t simplify_out_vars = 0;
  std::uint64_t sat_decisions = 0;
  std::uint64_t sat_conflicts = 0;
  std::uint64_t sat_propagations = 0;
  std::uint64_t circuit_conflicts = 0;
  std::uint64_t circuit_propagations = 0;
  std::uint64_t circuit_gate_propagations = 0;
  std::uint64_t race_runs = 0;
  std::uint64_t race_circuit_wins = 0;
  std::uint64_t witnesses = 0;
};

/// Replays \p arm on \p instance one library call at a time, in the order
/// core::solve_instance makes them (Algorithm 1 for Comp./Ours), with a
/// span around each call. The witness check (aig::evaluate) is the last
/// span. \p id tags every span with the instance.
ArmRecord replay(const BenchInstance& instance, Arm arm,
                 const csat::rl::DqnAgent* agent, Tracer& tracer,
                 std::uint64_t id, LayerCounts& counts);

}  // namespace perfbench

#endif  // PERFBENCH_ARMS_H
