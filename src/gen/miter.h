#ifndef CSAT_GEN_MITER_H
#define CSAT_GEN_MITER_H

/// \file miter.h
/// Miter construction and fault/bug injection — the instance builders of
/// the paper's Section IV-A: LEC instances connect the POs of two circuits
/// through XOR gates (satisfiable iff not equivalent); ATPG instances miter
/// a fault-free circuit against a stuck-at-faulty copy (a satisfying
/// assignment is a test pattern for the fault).

#include <cstdint>

#include "aig/aig.h"

namespace csat::gen {

/// Single-output miter of two circuits with identical interfaces: PIs are
/// shared, corresponding POs are XORed, and the XORs are OR-reduced. The
/// result is satisfiable iff the circuits differ on some input.
aig::Aig make_miter(const aig::Aig& a, const aig::Aig& b);

/// Equivalence miter of a ripple-carry against a Kogge-Stone adder of the
/// given operand width (with carry out) — UNSAT, with difficulty scaling in
/// \p width. The shared hard-UNSAT workhorse of the test, bench and example
/// suites.
aig::Aig make_adder_miter(int width);

/// Copies \p g with one random local mutation (complement a fanin edge,
/// swap an AND's input for another node, or turn AND into OR), producing a
/// "buggy implementation" for satisfiable LEC instances. The mutation site
/// is drawn from live nodes so the bug is (very likely) observable; a
/// circuit with no live AND gets one complemented PO instead.
aig::Aig inject_bug(const aig::Aig& g, std::uint64_t seed);

/// Copies \p g with node \p node stuck at \p value (the node's output is
/// replaced by the constant for all fanouts and POs).
aig::Aig inject_stuck_at(const aig::Aig& g, std::uint32_t node, bool value);

}  // namespace csat::gen

#endif  // CSAT_GEN_MITER_H
