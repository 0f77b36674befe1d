#ifndef CSAT_SAT_DRAT_CHECK_H
#define CSAT_SAT_DRAT_CHECK_H

/// \file drat_check.h
/// Self-contained forward DRAT proof checker.
///
/// Verifies that a proof emitted through sat::ProofTracer refutes a given
/// CNF: starting from the formula's clauses, each added clause must be RUP
/// (asserting its negation and unit-propagating over the accumulated set
/// yields a conflict) or RAT on its first literal (every resolvent on that
/// pivot with the accumulated set is RUP); deletions shrink the set. The
/// proof refutes the formula when it derives the empty clause.
///
/// This checker exists so the test suite can validate every UNSAT verdict
/// against the *original* formula without trusting the solver or the
/// preprocessor — the proof-mode analogue of check_model() for SAT
/// verdicts. It is a forward checker (drat-trim's default mode is
/// backward): simpler, fully deterministic, and fast enough for the
/// generated-instance scale of this repo. CI cross-checks the same proofs
/// with drat-trim when that binary happens to be on PATH. Proof files are
/// text DRAT (what TextDratWriter and the solve server write), read back
/// with parse_drat_text.
///
/// Semantics notes (matching drat-trim):
///  * Clauses are normalized at ingest (sorted, duplicate literals
///    dropped); tautologies are discarded — they carry no constraint and
///    would otherwise produce spurious RAT resolvent failures.
///  * The clause set is a multiset: deleting a clause removes one
///    instance; deleting a clause the checker does not hold is ignored
///    (deletions are advisory).
///  * Deletions of unit clauses are ignored (the root-level assignment
///    only grows), drat-trim's documented behavior.

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "cnf/cnf.h"
#include "sat/proof.h"

namespace csat::sat {

struct DratResult {
  /// Every add step was RUP or RAT. A valid proof need not be a
  /// refutation — proved_unsat says whether the empty clause was derived.
  bool valid = false;
  /// The empty clause was derived (and every step up to it was valid).
  bool proved_unsat = false;
  std::size_t steps_checked = 0;
  /// Index into the proof of the first invalid step (npos when valid).
  std::size_t failed_step = static_cast<std::size_t>(-1);
  std::string error;  ///< human-readable reason when !valid
};

/// Checks \p proof against \p formula. Steps after the empty clause is
/// derived are not checked (the refutation is already complete).
[[nodiscard]] DratResult check_drat(const cnf::Cnf& formula,
                                    std::span<const ProofStep> proof);

inline DratResult check_drat(const cnf::Cnf& formula, const ProofLog& log) {
  return check_drat(formula, std::span<const ProofStep>(log.steps()));
}

/// Parses a text DRAT stream ("1 -2 0", "d 3 0", 'c' comment lines).
/// Returns false and sets \p error on malformed input.
bool parse_drat_text(std::istream& in, std::vector<ProofStep>& out,
                     std::string& error);

}  // namespace csat::sat

#endif  // CSAT_SAT_DRAT_CHECK_H
