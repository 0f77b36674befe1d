#ifndef CSAT_AIG_VALIDATE_H
#define CSAT_AIG_VALIDATE_H

/// \file validate.h
/// Structural validation of AIGs.
///
/// `validate()` checks every invariant the append-only Aig is supposed to
/// maintain (topological ids, accurate levels, consistent reference counts,
/// fanins below the node, no dangling POs). The synthesis test-suites run
/// it after every pass so that a regression in the rebuild machinery is
/// caught at the structural level, before it manifests as a functional bug.

#include <string>
#include <vector>

#include "aig/aig.h"

namespace csat::aig {

struct ValidationReport {
  bool ok = true;
  std::vector<std::string> errors;
};

/// Checks all structural invariants; collects every violation found.
ValidationReport validate(const Aig& g);

}  // namespace csat::aig

#endif  // CSAT_AIG_VALIDATE_H
