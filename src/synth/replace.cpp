#include "synth/replace.h"

#include <array>

#include "synth/builder.h"
#include "synth/resyn.h"

namespace csat::synth {

int count_new_nodes(const aig::Aig& g, std::uint64_t func,
                    std::span<const std::uint32_t> leaves) {
  CSAT_CHECK(leaves.size() <= tt::kWordVars);
  std::array<aig::Lit, tt::kWordVars> leaf_lits;
  for (std::size_t i = 0; i < leaves.size(); ++i)
    leaf_lits[i] = aig::Lit::make(leaves[i], false);
  thread_local CountingBuilder b;
  b.reset(g);
  (void)replay(b, structure_of(func, static_cast<int>(leaves.size())),
               {leaf_lits.data(), leaves.size()});
  return b.new_nodes();
}

int mffc_size_bounded(const aig::Aig& g, std::uint32_t root,
                      std::span<const std::uint32_t> boundary) {
  thread_local aig::MffcWalker walker;
  return walker.walk(g, root, boundary);
}

namespace {

class Rebuilder {
 public:
  Rebuilder(const aig::Aig& src,
            const std::unordered_map<std::uint32_t, Replacement>& repl)
      : src_(src), repl_(repl), map_(src.num_nodes(), aig::kFalse),
        done_(src.num_nodes(), 0) {
    done_[0] = 1;  // constant maps to constant
    for (std::uint32_t pi : src.pis()) {
      map_[pi] = dst_.add_pi();
      done_[pi] = 1;
    }
  }

  aig::Aig run() {
    for (aig::Lit po : src_.pos()) dst_.add_po(build(po));
    return std::move(dst_);
  }

 private:
  aig::Lit build(aig::Lit old) {
    const std::uint32_t n = old.node();
    if (!done_[n]) {
      if (const auto it = repl_.find(n); it != repl_.end()) {
        const Replacement& r = it->second;
        const std::size_t k = r.leaves.size();
        CSAT_CHECK(k <= tt::kWordVars);
        std::array<aig::Lit, tt::kWordVars> leaf_lits;
        for (std::size_t i = 0; i < k; ++i)
          leaf_lits[i] = build(aig::Lit::make(r.leaves[i], false));
        // Looked up after the leaves are built: building them may record
        // other structures, which invalidates an earlier lookup.
        const Structure s = structure_of(r.func, static_cast<int>(k));
        RealBuilder rb(dst_);
        map_[n] = replay(rb, s, {leaf_lits.data(), k});
      } else {
        const aig::Lit a = build(src_.fanin0(n));
        const aig::Lit b = build(src_.fanin1(n));
        map_[n] = dst_.and2(a, b);
      }
      done_[n] = 1;
    }
    return map_[n] ^ old.is_compl();
  }

  const aig::Aig& src_;
  const std::unordered_map<std::uint32_t, Replacement>& repl_;
  aig::Aig dst_;
  std::vector<aig::Lit> map_;
  std::vector<char> done_;
};

}  // namespace

aig::Aig apply_replacements(
    const aig::Aig& g,
    const std::unordered_map<std::uint32_t, Replacement>& replacements) {
  return Rebuilder(g, replacements).run();
}

}  // namespace csat::synth
