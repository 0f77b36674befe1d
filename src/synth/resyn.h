#ifndef CSAT_SYNTH_RESYN_H
#define CSAT_SYNTH_RESYN_H

/// \file resyn.h
/// Resynthesis of a small Boolean function into an AIG structure.
///
/// Given a truth table over k <= 6 leaves (one word, minterm m at bit m),
/// synth_func builds the cheaper of the two ISOP-factored forms (onset
/// cover, or complemented offset cover). The phase choice is made from the
/// covers alone (cube + literal counts), so a dry-run CountingBuilder and
/// the later real instantiation deterministically produce the same
/// structure — a prerequisite for trustworthy gain estimates in rewriting.
///
/// The restructuring passes price and build many candidates but see few
/// distinct functions, so they do not call synth_func directly.
/// structure_of() runs it once per function (k <= 6) through a
/// CountingBuilder over a network of bare inputs and keeps the nodes that
/// dry run adds as a straight-line and2 program; replay() issues that
/// program through a RealBuilder or a CountingBuilder. Replay is exact:
///  * factor_sop's control flow depends only on the cover, never on what
///    and2 returns, so synth_func makes a fixed sequence of and2 calls whose
///    operands are leaves, constants or earlier results;
///  * with nothing in the network to share, the recording dry run folds
///    only the calls that both builders answer without a side effect (a
///    constant operand, equal or complementary operands, a pair already
///    built), with the code that folds them at replay;
/// so replaying the kept calls returns the same literal and leaves the
/// builder in the same state as synth_func would.

#include <cstdint>
#include <span>
#include <vector>

#include "synth/factor.h"
#include "tt/isop.h"

namespace csat::synth {

/// Literal-count weight of a cover (cubes + literals), the classic SOP
/// complexity proxy used to pick the implementation phase.
inline int cover_weight(const std::vector<tt::Cube>& cubes) {
  int w = static_cast<int>(cubes.size());
  for (const tt::Cube& c : cubes) w += c.num_lits();
  return w;
}

/// Builds \p f over \p leaves in the builder (variable i = leaves[i]; bits
/// at and above 2^leaves.size() are ignored); returns the output literal.
template <typename Builder>
aig::Lit synth_func(Builder& b, std::uint64_t f,
                    std::span<const aig::Lit> leaves) {
  const int k = static_cast<int>(leaves.size());
  CSAT_CHECK(k <= tt::kWordVars);
  f &= tt::word_mask(k);
  if (f == 0) return aig::kFalse;
  if (f == tt::word_mask(k)) return aig::kTrue;

  auto on = tt::isop(f, k);
  auto off = tt::isop(~f, k);
  if (cover_weight(on) <= cover_weight(off))
    return factor_sop(b, std::move(on), leaves);
  return !factor_sop(b, std::move(off), leaves);
}

/// synth_func's output for one function, as a straight-line and2 program.
/// Program literals are aig::Lit over value slots: slot 0 is the constant
/// FALSE, slots 1..num_leaves the leaves, slot num_leaves + 1 + i the
/// output of steps[i].
struct Structure {
  struct Step {
    aig::Lit a;
    aig::Lit b;
  };
  std::span<const Step> steps;
  aig::Lit out;
  int num_leaves = 0;

  /// Nodes the structure needs when nothing in the network can be shared.
  [[nodiscard]] int size() const { return static_cast<int>(steps.size()); }
};

/// The structure synth_func builds for the \p num_leaves-input function
/// whose table is the low 2^num_leaves bits of \p func
/// (num_leaves <= tt::kWordVars). Recorded on first use and memoized
/// per thread; the steps stay valid until the next structure_of call.
Structure structure_of(std::uint64_t func, int num_leaves);

/// Issues \p s through \p b over \p leaves (leaf i = variable i); returns
/// the output literal, exactly as synth_func on the same builder would.
/// Defined for RealBuilder and CountingBuilder; not reentrant per thread
/// (it keeps its value slots in per-thread scratch).
template <typename Builder>
aig::Lit replay(Builder& b, const Structure& s,
                std::span<const aig::Lit> leaves);

}  // namespace csat::synth

#endif  // CSAT_SYNTH_RESYN_H
