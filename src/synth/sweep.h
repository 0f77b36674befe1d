#ifndef CSAT_SYNTH_SWEEP_H
#define CSAT_SYNTH_SWEEP_H

/// \file sweep.h
/// SAT sweeping: functional reduction of an AIG (ABC's `fraig`).
///
/// The AIG is rebuilt bottom-up through structural hashing. Every new node
/// carries a signature: a few words of fixed-seed random simulation plus
/// the counterexample words found so far, normalized for phase, so a node
/// and its complement share a class. A new node whose signature matches a
/// class member (or is constant) is a candidate equivalence, and it is
/// proved on one incremental sat::Solver that holds the Tseitin clauses of
/// the cones loaded so far (no goal clause): two solve_assuming() calls,
/// {x, !y} and {!x, y}. Two UNSAT answers merge x into y and add the two
/// equivalence binaries; a SAT model is one counterexample, 64 of them
/// packed per word, so refining the classes costs one resimulation per
/// word; a check that hits its conflict cap merges nothing.
///
/// Effort is bounded by constants tied to the AIG's size that count work
/// (solver propagations and resimulated words), never wall clock, so the
/// output is a function of the input alone. A circuit whose random
/// simulation already sets a PO is returned unchanged: its CSAT instance
/// is satisfiable, and disproving its candidate pairs would cost the SAT
/// calls a solve of the instance needs no help from.
///
/// The sweep is recipe vocabulary (SynthOp::kSweep, the last op of the
/// normalization prelude), not an action of the RL agent.

#include "aig/aig.h"

namespace csat::synth {

/// One sweeping pass. The function of every PO is preserved, and the
/// result never has more AND nodes than the live part of \p g.
aig::Aig sweep(const aig::Aig& g);

}  // namespace csat::synth

#endif  // CSAT_SYNTH_SWEEP_H
