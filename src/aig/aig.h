#ifndef CSAT_AIG_AIG_H
#define CSAT_AIG_AIG_H

/// \file aig.h
/// Structurally hashed And-Inverter Graphs.
///
/// An AIG is a DAG whose internal nodes are 2-input ANDs and whose edges may
/// carry inverters (complemented edges). Node 0 is the constant FALSE; primary
/// inputs and AND nodes follow in creation order, so node ids are already a
/// topological order (and2() only accepts existing literals). Construction
/// performs constant folding, trivial-rule simplification and structural
/// hashing, which together implement ABC's `strash`/`aigmap` normalization —
/// the first step of the paper's Algorithm 1.
///
/// The class is append-only: synthesis passes (src/synth) never mutate nodes
/// in place; they analyse a frozen AIG and emit a rebuilt one. This keeps
/// every invariant (topological ids, accurate levels, consistent hash table,
/// reference counts) trivially true at all times.

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"

namespace csat::aig {

/// A literal: node index with a complement bit in the LSB.
struct Lit {
  std::uint32_t raw = 0;

  Lit() = default;
  constexpr explicit Lit(std::uint32_t r) : raw(r) {}

  static constexpr Lit make(std::uint32_t node, bool complemented) {
    return Lit((node << 1) | (complemented ? 1u : 0u));
  }

  [[nodiscard]] constexpr std::uint32_t node() const { return raw >> 1; }
  [[nodiscard]] constexpr bool is_compl() const { return (raw & 1u) != 0; }

  /// Complemented literal.
  [[nodiscard]] constexpr Lit operator!() const { return Lit(raw ^ 1u); }
  /// Conditional complement.
  [[nodiscard]] constexpr Lit operator^(bool c) const {
    return Lit(raw ^ (c ? 1u : 0u));
  }

  friend constexpr bool operator==(Lit a, Lit b) { return a.raw == b.raw; }
  friend constexpr bool operator!=(Lit a, Lit b) { return a.raw != b.raw; }
  friend constexpr bool operator<(Lit a, Lit b) { return a.raw < b.raw; }
};

constexpr Lit kFalse = Lit(0);  // constant node, positive phase = FALSE
constexpr Lit kTrue = Lit(1);

class Aig {
 public:
  enum class NodeType : std::uint8_t { kConst, kPi, kAnd };

  Aig() {
    nodes_.push_back(NodeData{});  // node 0: constant FALSE
    nodes_[0].type = NodeType::kConst;
  }

  /// --- construction ------------------------------------------------------

  /// Adds a primary input; returns its (positive) literal.
  Lit add_pi() {
    const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
    NodeData nd;
    nd.type = NodeType::kPi;
    nd.pi_index = static_cast<int>(pis_.size());
    nodes_.push_back(nd);
    pis_.push_back(id);
    return Lit::make(id, false);
  }

  /// AND of two existing literals with folding + structural hashing.
  Lit and2(Lit a, Lit b);

  /// Derived connectives (expressed over and2; kept here because every layer
  /// of the system builds logic through them).
  Lit or2(Lit a, Lit b) { return !and2(!a, !b); }
  Lit nand2(Lit a, Lit b) { return !and2(a, b); }
  Lit nor2(Lit a, Lit b) { return and2(!a, !b); }
  Lit xor2(Lit a, Lit b) { return !and2(!and2(a, !b), !and2(!a, b)); }
  Lit xnor2(Lit a, Lit b) { return !xor2(a, b); }
  /// if s then t else e.
  Lit mux(Lit s, Lit t, Lit e) { return !and2(!and2(s, t), !and2(!s, e)); }

  void add_po(Lit f) {
    CSAT_CHECK(f.node() < nodes_.size());
    pos_.push_back(f);
    ++nodes_[f.node()].fanout_count;
  }

  /// --- observers ---------------------------------------------------------

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] std::size_t num_pis() const { return pis_.size(); }
  [[nodiscard]] std::size_t num_pos() const { return pos_.size(); }
  [[nodiscard]] std::size_t num_ands() const { return num_ands_; }

  [[nodiscard]] NodeType type(std::uint32_t n) const { return nodes_[n].type; }
  [[nodiscard]] bool is_and(std::uint32_t n) const { return type(n) == NodeType::kAnd; }
  [[nodiscard]] bool is_pi(std::uint32_t n) const { return type(n) == NodeType::kPi; }
  [[nodiscard]] bool is_const(std::uint32_t n) const { return n == 0; }

  [[nodiscard]] Lit fanin0(std::uint32_t n) const {
    CSAT_DCHECK(is_and(n));
    return nodes_[n].fanin0;
  }
  [[nodiscard]] Lit fanin1(std::uint32_t n) const {
    CSAT_DCHECK(is_and(n));
    return nodes_[n].fanin1;
  }

  [[nodiscard]] int level(std::uint32_t n) const { return nodes_[n].level; }
  [[nodiscard]] std::uint32_t fanout_count(std::uint32_t n) const {
    return nodes_[n].fanout_count;
  }

  [[nodiscard]] const std::vector<std::uint32_t>& pis() const { return pis_; }
  [[nodiscard]] const std::vector<Lit>& pos() const { return pos_; }

  /// Index of a PI node among the PIs (inverse of pis()[i]).
  [[nodiscard]] int pi_index(std::uint32_t n) const {
    CSAT_DCHECK(is_pi(n));
    return nodes_[n].pi_index;
  }

  /// Longest PI-to-PO path length in AND nodes (circuit depth).
  [[nodiscard]] int depth() const {
    int d = 0;
    for (Lit po : pos_) d = d > level(po.node()) ? d : level(po.node());
    return d;
  }

  /// Number of fanin edges (2 per AND) plus PO edges — the paper's "wire
  /// count" feature.
  [[nodiscard]] std::size_t num_edges() const { return 2 * num_ands_ + pos_.size(); }

  /// Number of complemented fanin/PO edges — used for the paper's
  /// "proportion of NOT gates" feature (inverters live on edges in an AIG).
  [[nodiscard]] std::size_t num_complemented_edges() const;

  /// Structural-hash lookup without node creation: returns the existing
  /// literal equivalent to AND(a, b), or kFalse with found=false. Used by
  /// rewriting to count how many "new" nodes a candidate needs.
  [[nodiscard]] Lit lookup_and(Lit a, Lit b, bool& found) const;

  /// --- analysis helpers ---------------------------------------------------

  /// Size of the maximum fanout-free cone of \p n: the AND nodes that would
  /// become dead if n were removed. Non-destructive (an MffcWalker on
  /// per-thread scratch counters).
  [[nodiscard]] int mffc_size(std::uint32_t n) const;

  /// Nodes in topological order restricted to the transitive fanin cones of
  /// the POs (i.e. live nodes), excluding constant and PIs.
  [[nodiscard]] std::vector<std::uint32_t> live_ands() const;

  /// Total number of live AND nodes (reachable from POs).
  [[nodiscard]] std::size_t num_live_ands() const { return live_ands().size(); }

 private:
  struct NodeData {
    Lit fanin0{0};
    Lit fanin1{0};
    NodeType type = NodeType::kConst;
    int level = 0;
    std::uint32_t fanout_count = 0;
    int pi_index = -1;
  };

  static std::uint64_t strash_key(Lit a, Lit b) {
    return (static_cast<std::uint64_t>(a.raw) << 32) | b.raw;
  }

  std::vector<NodeData> nodes_;
  std::vector<std::uint32_t> pis_;
  std::vector<Lit> pos_;
  std::unordered_map<std::uint64_t, std::uint32_t> strash_;
  std::size_t num_ands_ = 0;
};

/// The one dereference walk behind every MFFC query (Aig::mffc_size,
/// mffc_nodes, synth::mffc_size_bounded): a fanin joins the cone when the
/// walk removes its last reference. Counters and membership marks are per
/// node and stamped with a walk generation, so a walk costs O(cone size)
/// with no clearing. Cones are not always small: a single-output miter's
/// root owns the whole circuit. Keep one walker per call site (usually
/// thread_local): a walk overwrites the previous one.
class MffcWalker {
 public:
  /// Walks the MFFC of \p root without descending into \p boundary nodes
  /// (they stay alive as inputs of a replacement). Returns the number of
  /// ANDs in the cone, root included; 0 when root is not an AND.
  int walk(const Aig& g, std::uint32_t root,
           std::span<const std::uint32_t> boundary = {});

  /// The last walk's cone in visit order (root first).
  [[nodiscard]] const std::vector<std::uint32_t>& nodes() const { return nodes_; }
  /// Whether \p n belongs to the last walk's cone.
  [[nodiscard]] bool contains(std::uint32_t n) const {
    return n < member_.size() && member_[n] == generation_;
  }

 private:
  std::vector<std::uint32_t> count_;        // dereferences this walk
  std::vector<std::uint32_t> count_stamp_;  // count_ valid iff == generation_
  std::vector<std::uint32_t> member_;       // in the cone iff == generation_
  std::vector<std::uint32_t> nodes_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t generation_ = 0;
};

/// Node-for-node identity: the same node types and fanin literals in id
/// order, the same PIs and the same POs. This is the key for memoizing
/// anything computed from an AIG: synthesis output order and solver
/// decisions depend on node ids, fanin order and dead logic, all of which
/// structural_hash deliberately ignores.
[[nodiscard]] bool identical(const Aig& a, const Aig& b);

/// Hash consistent with identical(): identical AIGs hash equal.
[[nodiscard]] std::uint64_t identity_hash(const Aig& g);

/// Deep-copies \p src into a freshly strashed AIG, keeping only logic
/// reachable from the POs. Returns the copy; \p old2new (if non-null)
/// receives the literal map (indexed by old node id, value = new literal of
/// the node's positive phase; dead nodes map to kFalse and are not
/// meaningful).
Aig cleanup_copy(const Aig& src, std::vector<Lit>* old2new = nullptr);

}  // namespace csat::aig

#endif  // CSAT_AIG_AIG_H
