#include "synth/resyn.h"

#include <array>
#include <unordered_map>

#include "synth/builder.h"

namespace csat::synth {

namespace {

/// Per-thread memo of recorded structures, keyed on (arity, table). It is
/// bounded: when full it starts over, which costs only re-recording.
struct Memo {
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 14;

  struct Entry {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    aig::Lit out;
  };

  std::array<std::unordered_map<std::uint64_t, Entry>, tt::kWordVars + 1>
      by_arity;
  std::vector<Structure::Step> steps;
  std::size_t entries = 0;
};

}  // namespace

Structure structure_of(std::uint64_t func, int num_leaves) {
  CSAT_CHECK(num_leaves >= 0 && num_leaves <= tt::kWordVars);
  func &= tt::word_mask(num_leaves);
  thread_local Memo memo;
  auto& table = memo.by_arity[static_cast<std::size_t>(num_leaves)];
  auto it = table.find(func);
  if (it == table.end()) {
    if (memo.entries == Memo::kMaxEntries) {
      for (auto& t : memo.by_arity) t.clear();
      memo.steps.clear();
      memo.entries = 0;
    }
    // Record over a network of bare inputs (node i + 1 = leaf i): it has
    // nothing to share, so the dry run adds a node for exactly the calls the
    // builders cannot fold, and numbers them from num_leaves + 1 on, the
    // program's value slots.
    aig::Aig inputs;
    std::array<aig::Lit, tt::kWordVars> leaves;
    for (int i = 0; i < num_leaves; ++i)
      leaves[static_cast<std::size_t>(i)] = inputs.add_pi();
    CountingBuilder rec(inputs);
    const aig::Lit out = synth_func(
        rec, func, {leaves.data(), static_cast<std::size_t>(num_leaves)});
    Memo::Entry e;
    e.first = static_cast<std::uint32_t>(memo.steps.size());
    e.count = static_cast<std::uint32_t>(rec.virtual_nodes().size());
    e.out = out;
    for (const auto& [key, lit] : rec.virtual_nodes()) {
      CSAT_DCHECK(lit.node() ==
                  inputs.num_nodes() + memo.steps.size() - e.first);
      memo.steps.push_back({aig::Lit(static_cast<std::uint32_t>(key >> 32)),
                            aig::Lit(static_cast<std::uint32_t>(key))});
    }
    it = table.emplace(func, e).first;
    ++memo.entries;
  }
  const Memo::Entry& e = it->second;
  return Structure{{memo.steps.data() + e.first, e.count}, e.out, num_leaves};
}

template <typename Builder>
aig::Lit replay(Builder& b, const Structure& s,
                std::span<const aig::Lit> leaves) {
  CSAT_DCHECK(static_cast<int>(leaves.size()) == s.num_leaves);
  thread_local std::vector<aig::Lit> slot;
  slot.resize(1 + leaves.size() + s.steps.size());
  slot[0] = aig::kFalse;
  for (std::size_t i = 0; i < leaves.size(); ++i) slot[1 + i] = leaves[i];
  std::size_t next = 1 + leaves.size();
  for (const Structure::Step& step : s.steps)
    slot[next++] = b.and2(slot[step.a.node()] ^ step.a.is_compl(),
                          slot[step.b.node()] ^ step.b.is_compl());
  return slot[s.out.node()] ^ s.out.is_compl();
}

template aig::Lit replay(RealBuilder&, const Structure&,
                         std::span<const aig::Lit>);
template aig::Lit replay(CountingBuilder&, const Structure&,
                         std::span<const aig::Lit>);

}  // namespace csat::synth
