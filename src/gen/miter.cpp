#include "gen/miter.h"

#include "common/check.h"
#include "common/rng.h"
#include "gen/arith.h"

namespace csat::gen {

using aig::Aig;
using aig::Lit;

aig::Aig make_miter(const Aig& a, const Aig& b) {
  CSAT_CHECK(a.num_pis() == b.num_pis());
  CSAT_CHECK(a.num_pos() == b.num_pos());
  Aig m;
  std::vector<Lit> shared;
  shared.reserve(a.num_pis());
  for (std::size_t i = 0; i < a.num_pis(); ++i) shared.push_back(m.add_pi());

  const auto copy_into = [&m, &shared](const Aig& src) {
    std::vector<Lit> map(src.num_nodes(), aig::kFalse);
    for (std::size_t i = 0; i < src.num_pis(); ++i) map[src.pis()[i]] = shared[i];
    for (std::uint32_t n : src.live_ands()) {
      const Lit f0 = map[src.fanin0(n).node()] ^ src.fanin0(n).is_compl();
      const Lit f1 = map[src.fanin1(n).node()] ^ src.fanin1(n).is_compl();
      map[n] = m.and2(f0, f1);
    }
    std::vector<Lit> pos;
    pos.reserve(src.num_pos());
    for (Lit po : src.pos()) pos.push_back(map[po.node()] ^ po.is_compl());
    return pos;
  };

  const auto pos_a = copy_into(a);
  const auto pos_b = copy_into(b);
  Lit any_diff = aig::kFalse;
  for (std::size_t i = 0; i < pos_a.size(); ++i)
    any_diff = m.or2(any_diff, m.xor2(pos_a[i], pos_b[i]));
  m.add_po(any_diff);
  return m;
}

aig::Aig make_adder_miter(int width) {
  Aig g1;
  {
    const Word a = input_word(g1, width);
    const Word b = input_word(g1, width);
    for (Lit l : ripple_carry_add(g1, a, b, aig::kFalse, true)) g1.add_po(l);
  }
  Aig g2;
  {
    const Word a = input_word(g2, width);
    const Word b = input_word(g2, width);
    for (Lit l : kogge_stone_add(g2, a, b, aig::kFalse, true)) g2.add_po(l);
  }
  return make_miter(g1, g2);
}

aig::Aig inject_bug(const Aig& g, std::uint64_t seed) {
  Rng rng(seed);
  const auto live = g.live_ands();
  // A circuit with no live AND has nothing to mutate; its bug is one
  // complemented PO instead.
  std::uint32_t victim = 0;  // the constant node: never an AND
  int mutation = 0;
  std::size_t flipped_po = g.num_pos();  // none
  if (live.empty()) {
    CSAT_CHECK_MSG(g.num_pos() > 0, "inject_bug: circuit has no outputs");
    flipped_po = rng.next_below(g.num_pos());
  } else {
    victim = live[rng.next_below(live.size())];
    mutation = static_cast<int>(rng.next_below(3));
  }

  Aig out;
  std::vector<Lit> map(g.num_nodes(), aig::kFalse);
  for (std::uint32_t pi : g.pis()) map[pi] = out.add_pi();
  for (std::uint32_t n : live) {
    Lit f0 = map[g.fanin0(n).node()] ^ g.fanin0(n).is_compl();
    Lit f1 = map[g.fanin1(n).node()] ^ g.fanin1(n).is_compl();
    if (n == victim) {
      switch (mutation) {
        case 0:  // complement one fanin edge
          f0 = !f0;
          map[n] = out.and2(f0, f1);
          break;
        case 1:  // AND becomes OR
          map[n] = out.or2(f0, f1);
          break;
        default:  // AND becomes XOR
          map[n] = out.xor2(f0, f1);
          break;
      }
    } else {
      map[n] = out.and2(f0, f1);
    }
  }
  for (std::size_t i = 0; i < g.num_pos(); ++i) {
    const Lit po = g.pos()[i];
    out.add_po(map[po.node()] ^ (po.is_compl() != (i == flipped_po)));
  }
  return out;
}

aig::Aig inject_stuck_at(const Aig& g, std::uint32_t node, bool value) {
  CSAT_CHECK(node < g.num_nodes());
  Aig out;
  std::vector<Lit> map(g.num_nodes(), aig::kFalse);
  for (std::uint32_t pi : g.pis()) map[pi] = out.add_pi();
  const Lit stuck = value ? aig::kTrue : aig::kFalse;
  if (!g.is_and(node)) map[node] = stuck;  // stuck PI (or constant)
  for (std::uint32_t n : g.live_ands()) {
    if (n == node) {
      map[n] = stuck;
      continue;
    }
    const Lit f0 = map[g.fanin0(n).node()] ^ g.fanin0(n).is_compl();
    const Lit f1 = map[g.fanin1(n).node()] ^ g.fanin1(n).is_compl();
    map[n] = out.and2(f0, f1);
  }
  for (Lit po : g.pos()) {
    const Lit mapped =
        po.node() == node ? (stuck ^ po.is_compl()) : (map[po.node()] ^ po.is_compl());
    out.add_po(mapped);
  }
  return out;
}

}  // namespace csat::gen
