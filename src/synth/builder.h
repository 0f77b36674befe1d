#ifndef CSAT_SYNTH_BUILDER_H
#define CSAT_SYNTH_BUILDER_H

/// \file builder.h
/// Node-factory abstraction behind all resynthesis code.
///
/// Every structure generator (SOP factoring, function resynthesis, replay of
/// a recorded structure) is written against a Builder concept exposing
/// `and2(Lit, Lit) -> Lit`. Two implementations live here:
///  * RealBuilder      — appends nodes to a destination Aig (strashed);
///  * CountingBuilder  — *dry-run* against a frozen source Aig: reuses
///    existing nodes via structural-hash lookup and counts how many genuinely
///    new nodes a candidate structure would need. This is how rewriting,
///    refactoring and resubstitution estimate gain (nodes freed in the MFFC
///    minus new nodes) without mutating anything.
/// Both fold the same calls (constant operand, equal or complementary
/// operands, a pair already built) before touching any state. resyn.cpp
/// records synth_func's structures with a CountingBuilder over a network of
/// bare inputs, and replays them through either builder; exact replay
/// relies on that agreement.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "aig/aig.h"

namespace csat::synth {

class RealBuilder {
 public:
  explicit RealBuilder(aig::Aig& g) : g_(&g) {}
  aig::Lit and2(aig::Lit a, aig::Lit b) { return g_->and2(a, b); }

 private:
  aig::Aig* g_;
};

class CountingBuilder {
 public:
  CountingBuilder() = default;
  explicit CountingBuilder(const aig::Aig& g) { reset(g); }

  /// Starts a fresh dry run against \p g, keeping the buffer's capacity.
  void reset(const aig::Aig& g) {
    g_ = &g;
    virtual_.clear();
    next_virtual_ = static_cast<std::uint32_t>(g.num_nodes());
    new_nodes_ = 0;
  }

  aig::Lit and2(aig::Lit a, aig::Lit b) {
    using aig::kFalse;
    using aig::kTrue;
    if (a == kFalse || b == kFalse) return kFalse;
    if (a == kTrue) return b;
    if (b == kTrue) return a;
    if (a == b) return a;
    if (a == !b) return kFalse;
    if (b < a) std::swap(a, b);

    // Structures over existing nodes may already be present in the network.
    if (a.node() < g_->num_nodes() && b.node() < g_->num_nodes()) {
      bool found = false;
      const aig::Lit hit = g_->lookup_and(a, b, found);
      if (found) return hit;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(a.raw) << 32) | b.raw;
    // Candidate structures are tiny (a few dozen nodes), so a linear-scan
    // map is faster than hashing — this runs once per cut in rewriting.
    for (const auto& [k, lit] : virtual_)
      if (k == key) return lit;
    const aig::Lit fresh = aig::Lit::make(next_virtual_++, false);
    virtual_.emplace_back(key, fresh);
    ++new_nodes_;
    return fresh;
  }

  [[nodiscard]] int new_nodes() const { return new_nodes_; }

  /// The nodes this dry run would add, in creation order: for each, the key
  /// (a.raw << 32) | b.raw of its operands (a < b) and its literal.
  [[nodiscard]] std::span<const std::pair<std::uint64_t, aig::Lit>>
  virtual_nodes() const {
    return virtual_;
  }

 private:
  const aig::Aig* g_ = nullptr;
  std::vector<std::pair<std::uint64_t, aig::Lit>> virtual_;
  std::uint32_t next_virtual_ = 0;
  int new_nodes_ = 0;
};

}  // namespace csat::synth

#endif  // CSAT_SYNTH_BUILDER_H
