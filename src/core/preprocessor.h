#ifndef CSAT_CORE_PREPROCESSOR_H
#define CSAT_CORE_PREPROCESSOR_H

/// \file preprocessor.h
/// The paper's CSAT preprocessing framework — a faithful implementation of
/// Algorithm 1:
///
///   1. normalize the input instance into a strashed AIG (`aigmap`; our
///      construction is strashed by design, plus an optional predetermined
///      normalization recipe to unify instance distributions: balance,
///      rewrite, balance, then a SAT sweep that merges equivalent nodes),
///   2. iteratively choose logic-synthesis operations through a Policy
///      (RL agent / random / fixed script) until `end` or T steps,
///   3. cost-customized LUT mapping,
///   4. ISOP LUT -> CNF encoding.
///
/// The output CNF is what a downstream CDCL solver consumes; the recorded
/// statistics (sizes, mapping cost, per-phase wall-clock) feed the
/// experiment harness.

#include <cstdint>
#include <vector>

#include "aig/aig.h"
#include "cnf/cnf.h"
#include "lut/lut_network.h"
#include "lut/lut_to_cnf.h"
#include "lut/mapper.h"
#include "rl/policy.h"
#include "synth/recipe.h"

namespace csat::core {

struct PreprocessOptions {
  /// T — maximum number of synthesis steps per instance (paper: 10).
  int max_steps = 10;
  /// Apply the predetermined normalization prelude (Section III-A).
  bool normalize = true;
  lut::MapperParams mapper;  ///< branching-cost 4-LUT mapping by default
  PreprocessOptions() { mapper.cost = lut::CostKind::kBranching; }
};

struct PreprocessResult {
  cnf::Cnf cnf;
  lut::LutNetwork netlist;
  /// Map from netlist nodes to CNF variables (for witness extraction).
  lut::LutCnfResult encoding_info;
  /// The synthesis ops the policy actually executed (excluding `end`).
  std::vector<synth::SynthOp> recipe;
  bool trivially_sat = false;
  bool trivially_unsat = false;

  // Bookkeeping for the experiment tables.
  std::size_t ands_before = 0;
  std::size_t ands_after = 0;
  std::size_t num_luts = 0;
  std::int64_t total_branching = 0;
  double synthesis_seconds = 0.0;
  double mapping_seconds = 0.0;
  double encoding_seconds = 0.0;
};

class Preprocessor {
 public:
  explicit Preprocessor(PreprocessOptions options = {}) : options_(options) {}

  /// Runs Algorithm 1 on \p instance, consulting \p policy for each step.
  PreprocessResult run(const aig::Aig& instance, rl::Policy& policy) const;

  [[nodiscard]] const PreprocessOptions& options() const { return options_; }

 private:
  PreprocessOptions options_;
};

}  // namespace csat::core

#endif  // CSAT_CORE_PREPROCESSOR_H
