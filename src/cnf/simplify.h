#ifndef CSAT_CNF_SIMPLIFY_H
#define CSAT_CNF_SIMPLIFY_H

/// \file simplify.h
/// CNF-level preprocessing: unit propagation, pure-literal elimination,
/// failed-literal probing with equivalent-literal substitution,
/// (self-)subsumption, bounded variable elimination and variable remapping.
///
/// The paper's pipeline runs on top of the solvers' "default CNF-based
/// preprocessing" (Section IV, footnote 1) — the techniques of Eén-Biere
/// SatELite and NiVER ([5], [6] in the paper). This module provides that
/// layer for our self-contained stack:
///   * unit propagation to a fixpoint,
///   * pure-literal elimination,
///   * failed-literal probing (assume a literal, BCP; a conflict fixes the
///     negation; literals implied by both phases are fixed; opposite
///     implications in the two phases yield variable equivalences that are
///     substituted away),
///   * backward subsumption and self-subsuming resolution (strengthening),
///   * bounded variable elimination (eliminate v when the resolvent set is
///     no larger than the clauses it replaces, NiVER's non-increasing rule),
///   * variable remapping: the output formula lives on a dense variable
///     range containing only the surviving variables, so the CDCL solver
///     never allocates or branches over eliminated ones.
///
/// Every removal is recorded on a reconstruction stack so that a model of
/// the simplified formula can be *extended* to a model of the original
/// formula (SatELite-style reconstruction, replayed newest-first).
///
/// All techniques are budgeted (propagation steps, resolution steps, wall
/// clock) so the engine is safe to run by default on every solve path.

#include <cstdint>
#include <limits>
#include <vector>

#include "cnf/cnf.h"

namespace csat::sat {
class ProofTracer;  // sat/proof.h
}

namespace csat::cnf {

/// Every technique always runs; the engine's step budgets are fixed
/// constants (simplify.cpp), so only the wall clock and the proof sink are
/// per-call settings.
struct SimplifyParams {
  /// Wall-clock cap in seconds. Infinite by default: finite values make
  /// the *output* depend on machine speed, which breaks run-to-run
  /// determinism (the step budgets are the deterministic guards).
  double max_seconds = std::numeric_limits<double>::infinity();
  /// Optional DRAT proof sink (sat/proof.h; not owned). When set, every
  /// state change — unit/failed-literal/pure fixes, equivalence
  /// substitutions, subsumption kills, strengthenings, BVE resolvents and
  /// parent deletions — is emitted as add/delete steps *in the input
  /// variable space*, before any dense remapping, so the proof composes
  /// with the solver's continuation (translated back through
  /// sat::RemapTracer) into one refutation of the original formula.
  csat::sat::ProofTracer* proof = nullptr;
};

struct SimplifyStats {
  std::uint64_t fixed_units = 0;        ///< fixed by unit propagation
  std::uint64_t pure_literals = 0;      ///< fixed as pure
  std::uint64_t failed_literals = 0;    ///< fixed by probing (conflict/lift)
  std::uint64_t equivalent_literals = 0;///< variables substituted away
  std::uint64_t probed_literals = 0;    ///< variables probed (both phases)
  std::uint64_t eliminated_vars = 0;    ///< removed by variable elimination
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t strengthened_clauses = 0;
  std::uint64_t removed_clauses = 0;    ///< total clauses dropped
  std::uint64_t propagations = 0;       ///< propagation steps spent
  std::uint64_t resolutions = 0;        ///< resolution steps spent
  bool budget_exhausted = false;        ///< a budget stopped the run early
  double seconds = 0.0;                 ///< wall clock spent simplifying
};

class SimplifyResult {
 public:
  /// Simplified formula, on a dense variable range that holds only the
  /// surviving variables (see var_map/inverse_map). When unsat, it is the
  /// canonical unsatisfiable formula: zero variables and one empty clause.
  Cnf cnf;
  SimplifyStats stats;
  bool unsat = false;  ///< conflict found during preprocessing

  /// Variable count of the *original* formula.
  std::uint32_t original_vars = 0;

  /// Sentinel in var_map for variables with no image in the output
  /// (fixed, eliminated, substituted or unconstrained).
  static constexpr std::uint32_t kUnmapped =
      std::numeric_limits<std::uint32_t>::max();
  /// original variable -> output variable (kUnmapped when dropped).
  std::vector<std::uint32_t> var_map;
  /// output variable -> original variable (size == cnf.num_vars()).
  std::vector<std::uint32_t> inverse_map;

  /// Extends a model of `cnf` (indexed by *output* variables; extra
  /// entries are ignored) to a model of the original formula: output
  /// values are scattered through inverse_map, then the reconstruction
  /// stack is replayed newest-first. The returned vector has
  /// original_vars entries.
  [[nodiscard]] std::vector<bool> extend_model(std::vector<bool> model) const;

  /// One reconstruction-stack entry. Entries are pushed in the order the
  /// simplifier acted and must be replayed in reverse (newest first);
  /// treat as read-only from user code.
  struct Reconstruction {
    enum class Kind : std::uint8_t {
      kFixed,       ///< var fixed to a constant: `binding` is the true literal
      kEquivalent,  ///< var equivalent to `binding` (a literal of its
                    ///< representative variable)
      kEliminated,  ///< var removed by BVE: its original clauses, which
                    ///< force its value under the suffix, are
                    ///< eliminated.clause(k) for k in [first_clause,
                    ///< last_clause)
    };
    Kind kind = Kind::kFixed;
    std::uint32_t var = 0;
    Lit binding{};  ///< kFixed / kEquivalent payload (unused for kEliminated)
    std::uint32_t first_clause = 0;  ///< kEliminated payload: clause range
    std::uint32_t last_clause = 0;   ///< of `eliminated`, one past the end
  };
  std::vector<Reconstruction> stack;
  /// Every clause variable elimination removed, in elimination order and
  /// in the input variable space: one flat literal pool that the
  /// kEliminated entries of `stack` index by clause range.
  Cnf eliminated;
};

/// Runs the preprocessing pipeline. The result's formula is
/// equisatisfiable with the input, and extend_model() maps models back.
SimplifyResult simplify(const Cnf& formula, const SimplifyParams& params = {});

}  // namespace csat::cnf

#endif  // CSAT_CNF_SIMPLIFY_H
