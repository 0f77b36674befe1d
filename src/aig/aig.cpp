#include "aig/aig.h"

#include <algorithm>

#include "common/rng.h"

namespace csat::aig {

Lit Aig::and2(Lit a, Lit b) {
  CSAT_CHECK(a.node() < nodes_.size() && b.node() < nodes_.size());

  // Constant folding and the trivial one-level rules.
  if (a == kFalse || b == kFalse) return kFalse;
  if (a == kTrue) return b;
  if (b == kTrue) return a;
  if (a == b) return a;
  if (a == !b) return kFalse;

  // Canonical operand order makes the hash table phase-insensitive.
  if (b < a) std::swap(a, b);

  const std::uint64_t key = strash_key(a, b);
  if (auto it = strash_.find(key); it != strash_.end())
    return Lit::make(it->second, false);

  const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
  NodeData nd;
  nd.type = NodeType::kAnd;
  nd.fanin0 = a;
  nd.fanin1 = b;
  nd.level = 1 + std::max(nodes_[a.node()].level, nodes_[b.node()].level);
  nodes_.push_back(nd);
  ++nodes_[a.node()].fanout_count;
  ++nodes_[b.node()].fanout_count;
  strash_.emplace(key, id);
  ++num_ands_;
  return Lit::make(id, false);
}

Lit Aig::lookup_and(Lit a, Lit b, bool& found) const {
  found = false;
  if (a == kFalse || b == kFalse) {
    found = true;
    return kFalse;
  }
  if (a == kTrue) {
    found = true;
    return b;
  }
  if (b == kTrue) {
    found = true;
    return a;
  }
  if (a == b) {
    found = true;
    return a;
  }
  if (a == !b) {
    found = true;
    return kFalse;
  }
  if (b < a) std::swap(a, b);
  if (auto it = strash_.find(strash_key(a, b)); it != strash_.end()) {
    found = true;
    return Lit::make(it->second, false);
  }
  return kFalse;
}

std::size_t Aig::num_complemented_edges() const {
  std::size_t n = 0;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (!is_and(i)) continue;
    n += fanin0(i).is_compl() ? 1 : 0;
    n += fanin1(i).is_compl() ? 1 : 0;
  }
  for (Lit po : pos_) n += po.is_compl() ? 1 : 0;
  return n;
}

int Aig::mffc_size(std::uint32_t n) const {
  thread_local MffcWalker walker;
  return walker.walk(*this, n);
}

int MffcWalker::walk(const Aig& g, std::uint32_t root,
                     std::span<const std::uint32_t> boundary) {
  nodes_.clear();
  if (++generation_ == 0) {  // wrapped: no stale stamp may match again
    std::fill(count_stamp_.begin(), count_stamp_.end(), 0u);
    std::fill(member_.begin(), member_.end(), 0u);
    generation_ = 1;
  }
  if (!g.is_and(root)) return 0;
  if (count_.size() < g.num_nodes()) {
    count_.resize(g.num_nodes(), 0);
    count_stamp_.resize(g.num_nodes(), 0);
    member_.resize(g.num_nodes(), 0);
  }
  // Boundaries are cut leaves (a handful), so a linear scan is cheapest.
  const auto in_boundary = [boundary](std::uint32_t node) {
    for (std::uint32_t b : boundary)
      if (b == node) return true;
    return false;
  };
  stack_.assign(1, root);
  member_[root] = generation_;
  while (!stack_.empty()) {
    const std::uint32_t cur = stack_.back();
    stack_.pop_back();
    nodes_.push_back(cur);
    for (Lit f : {g.fanin0(cur), g.fanin1(cur)}) {
      const std::uint32_t child = f.node();
      if (!g.is_and(child) || in_boundary(child)) continue;
      if (count_stamp_[child] != generation_) {
        count_stamp_[child] = generation_;
        count_[child] = 0;
      }
      if (++count_[child] == g.fanout_count(child)) {
        member_[child] = generation_;
        stack_.push_back(child);
      }
    }
  }
  return static_cast<int>(nodes_.size());
}

std::vector<std::uint32_t> Aig::live_ands() const {
  std::vector<char> mark(nodes_.size(), 0);
  std::vector<std::uint32_t> stack;
  for (Lit po : pos_) stack.push_back(po.node());
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (mark[n]) continue;
    mark[n] = 1;
    if (is_and(n)) {
      stack.push_back(fanin0(n).node());
      stack.push_back(fanin1(n).node());
    }
  }
  std::vector<std::uint32_t> order;
  order.reserve(num_ands_);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i)
    if (mark[i] && is_and(i)) order.push_back(i);  // ids are topological
  return order;
}

bool identical(const Aig& a, const Aig& b) {
  if (a.num_nodes() != b.num_nodes() || a.pis() != b.pis() || a.pos() != b.pos())
    return false;
  for (std::uint32_t n = 0; n < a.num_nodes(); ++n) {
    if (a.type(n) != b.type(n)) return false;
    if (a.is_and(n) && (a.fanin0(n) != b.fanin0(n) || a.fanin1(n) != b.fanin1(n)))
      return false;
  }
  return true;
}

std::uint64_t identity_hash(const Aig& g) {
  std::uint64_t h = mix64(g.num_nodes());
  const auto fold = [&h](std::uint64_t v) { h = mix64(h ^ v); };
  for (std::uint32_t n = 0; n < g.num_nodes(); ++n) {
    if (g.is_and(n))
      fold((static_cast<std::uint64_t>(g.fanin0(n).raw) << 32) | g.fanin1(n).raw);
    else
      fold(static_cast<std::uint64_t>(g.type(n)));
  }
  for (std::uint32_t pi : g.pis()) fold(pi);
  for (Lit po : g.pos()) fold(po.raw);
  return h;
}

Aig cleanup_copy(const Aig& src, std::vector<Lit>* old2new) {
  Aig dst;
  std::vector<Lit> map(src.num_nodes(), kFalse);
  // PIs are copied unconditionally to keep the interface (PI order) stable.
  for (std::uint32_t pi : src.pis()) {
    Lit l = dst.add_pi();
    map[pi] = l;
  }
  for (std::uint32_t n : src.live_ands()) {
    const Lit a = map[src.fanin0(n).node()] ^ src.fanin0(n).is_compl();
    const Lit b = map[src.fanin1(n).node()] ^ src.fanin1(n).is_compl();
    map[n] = dst.and2(a, b);
  }
  for (Lit po : src.pos()) dst.add_po(map[po.node()] ^ po.is_compl());
  if (old2new != nullptr) *old2new = std::move(map);
  return dst;
}

}  // namespace csat::aig
