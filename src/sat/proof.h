#ifndef CSAT_SAT_PROOF_H
#define CSAT_SAT_PROOF_H

/// \file proof.h
/// DRAT proof emission: checkable UNSAT certificates for the sequential
/// solve path.
///
/// A DRAT proof is a sequence of clause additions and deletions. Each added
/// clause must be RUP (reverse unit propagation: asserting its negation and
/// unit-propagating over the accumulated clause set yields a conflict) or,
/// failing that, RAT on its first literal. A proof refutes the formula when
/// it derives the empty clause. The accumulated set starts as the *original*
/// formula, so a verifier needs nothing but the input CNF and the proof —
/// no trust in this codebase.
///
/// Producers in this repo:
///  * sat::Solver (set_proof()): learnt clauses after conflict analysis,
///    learnt-DB deletions in ClauseDb::reduce(), and the empty clause on
///    every UNSAT exit.
///  * cnf::simplify (SimplifyParams::proof): every preprocessing state
///    change — probing/unit fixes, pure literals, equivalence
///    substitutions, BVE resolvents, subsumption and strengthening — as
///    add/delete lines *in original-variable space*, emitted before the
///    dense variable remapping. The solver's post-remap steps are
///    translated back through RemapTracer, so one proof stream covers the
///    whole pipeline against the original formula.
///
/// Clause-sharing imports are the one thing that cannot be certified this
/// way: a foreign clause is implied by the formula, but its derivation
/// lives in another worker's search, so it is not RUP-derivable from this
/// worker's accumulated set. Proof mode is therefore sequential-only —
/// Solver::set_proof() and connect_exchange() are mutually exclusive, and
/// core::solve_stage() rejects a proof sink on any other backend with a
/// hard error.
///
/// Sinks: ProofLog (in-memory, feeds sat::check_drat in tests) and
/// TextDratWriter ("1 -2 0\n" / "d 1 -2 0\n", the drat-trim text format
/// the solve server writes). RemapTracer is a decorator that translates
/// literals through SimplifyResult::inverse_map before forwarding.

#include <cstdint>
#include <ostream>
#include <span>
#include <vector>

#include "cnf/cnf.h"

namespace csat::sat {

using cnf::Lit;

/// Sink interface for DRAT proof steps. Implementations must tolerate
/// repeated identical additions (the emitters deduplicate only where it is
/// cheap) and an empty span (the empty clause). Not thread-safe: a tracer
/// belongs to exactly one sequential solve.
class ProofTracer {
 public:
  virtual ~ProofTracer() = default;

  /// Records the addition of a clause (empty span = the empty clause,
  /// i.e. the refutation is complete).
  virtual void add(std::span<const Lit> lits) = 0;

  /// Records the deletion of a clause. Deletions are advisory — they keep
  /// checker state small and make RAT steps checkable — and a checker
  /// ignores deletions of clauses it does not hold.
  virtual void remove(std::span<const Lit> lits) = 0;
};

/// One recorded step, for in-memory proofs and the checker.
struct ProofStep {
  bool is_delete = false;
  std::vector<Lit> lits;  ///< empty + !is_delete = the empty clause

  friend bool operator==(const ProofStep&, const ProofStep&) = default;
};

/// In-memory proof recorder: the test-side sink, consumed directly by
/// sat::check_drat (no serialization round-trip).
class ProofLog final : public ProofTracer {
 public:
  void add(std::span<const Lit> lits) override {
    steps_.push_back({false, {lits.begin(), lits.end()}});
  }
  void remove(std::span<const Lit> lits) override {
    steps_.push_back({true, {lits.begin(), lits.end()}});
  }

  [[nodiscard]] const std::vector<ProofStep>& steps() const { return steps_; }
  [[nodiscard]] bool empty() const { return steps_.empty(); }
  void clear() { steps_.clear(); }

 private:
  std::vector<ProofStep> steps_;
};

/// Text DRAT writer: one step per line in DIMACS literal numbering,
/// deletions prefixed "d ". The format drat-trim consumes. The stream must
/// outlive the writer; call flush() (or destroy the writer) before handing
/// the file to an external checker.
class TextDratWriter final : public ProofTracer {
 public:
  explicit TextDratWriter(std::ostream& out) : out_(&out) {}

  void add(std::span<const Lit> lits) override;
  void remove(std::span<const Lit> lits) override;
  void flush() { out_->flush(); }

 private:
  void write_clause(std::span<const Lit> lits);
  std::ostream* out_;
};

/// Decorator translating literals from a renamed variable space back to
/// the original one before forwarding — the bridge between the solver
/// (which runs on cnf::simplify's densely remapped output) and a proof
/// over the original formula. `inverse_map[output_var] = original_var`
/// (SimplifyResult::inverse_map). Literal signs are preserved.
class RemapTracer final : public ProofTracer {
 public:
  RemapTracer(ProofTracer& sink, std::vector<std::uint32_t> inverse_map)
      : sink_(&sink), inverse_map_(std::move(inverse_map)) {}

  void add(std::span<const Lit> lits) override {
    sink_->add(translate(lits));
  }
  void remove(std::span<const Lit> lits) override {
    sink_->remove(translate(lits));
  }

 private:
  std::span<const Lit> translate(std::span<const Lit> lits);

  ProofTracer* sink_;
  std::vector<std::uint32_t> inverse_map_;
  std::vector<Lit> scratch_;
};

}  // namespace csat::sat

#endif  // CSAT_SAT_PROOF_H
