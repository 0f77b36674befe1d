#include "aig/aig.h"

#include <algorithm>

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
  if (!is_and(n)) return 0;
  // Simulated dereference on scratch counters: a fanin joins the MFFC when
  // removing its last reference. MFFCs are tiny, so a linear-scan counter
  // list beats hashing (this runs once per node in every synthesis pass),
  // and per-thread buffers avoid allocating on every call.
  thread_local std::vector<std::pair<std::uint32_t, std::uint32_t>> deref;
  thread_local std::vector<std::uint32_t> stack;
  deref.clear();
  const auto bump = [](std::uint32_t node) -> std::uint32_t& {
    for (auto& [id, count] : deref)
      if (id == node) return count;
    deref.emplace_back(node, 0u);
    return deref.back().second;
  };
  int size = 0;
  stack.assign(1, n);
  while (!stack.empty()) {
    const std::uint32_t cur = stack.back();
    stack.pop_back();
    ++size;
    for (Lit f : {fanin0(cur), fanin1(cur)}) {
      const std::uint32_t child = f.node();
      if (!is_and(child)) continue;
      if (++bump(child) == nodes_[child].fanout_count) stack.push_back(child);
    }
  }
  return size;
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
