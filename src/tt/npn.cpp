#include "tt/npn.h"

#include <unordered_set>
#include <vector>

namespace csat::tt {

std::uint16_t npn4_apply(std::uint16_t f, const NpnTransform& t) {
  std::uint16_t g = 0;
  for (unsigned m = 0; m < 16; ++m) {
    unsigned src = 0;
    for (unsigned i = 0; i < 4; ++i) {
      const unsigned bit = ((m >> i) & 1u) ^ ((t.input_neg >> i) & 1u);
      src |= bit << t.perm[i];
    }
    unsigned val = (f >> src) & 1u;
    if (t.output_neg) val ^= 1u;
    g |= static_cast<std::uint16_t>(val << m);
  }
  return g;
}

Npn4Canon npn4_canonize(std::uint16_t f) {
  static constexpr std::array<std::array<std::uint8_t, 4>, 24> kPerms = [] {
    std::array<std::array<std::uint8_t, 4>, 24> perms{};
    int idx = 0;
    std::array<std::uint8_t, 4> p{0, 1, 2, 3};
    // Heap-free enumeration of all 24 permutations of {0,1,2,3}.
    for (int a = 0; a < 4; ++a)
      for (int b = 0; b < 4; ++b) {
        if (b == a) continue;
        for (int c = 0; c < 4; ++c) {
          if (c == a || c == b) continue;
          const int d = 6 - a - b - c;
          p = {static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
               static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d)};
          perms[idx++] = p;
        }
      }
    return perms;
  }();

  // g(x) = h(x ^ neg) ^ oneg with h = f∘perm, so each permutation is
  // tabulated once and every input negation is a fixed block swap of h.
  static constexpr std::uint16_t kLow[4] = {0x5555, 0x3333, 0x0F0F, 0x00FF};
  Npn4Canon best;
  best.canon = 0xffff;
  bool first = true;
  for (const auto& perm : kPerms) {
    NpnTransform t;
    t.perm = perm;
    const std::uint16_t h = npn4_apply(f, t);
    for (std::uint8_t neg = 0; neg < 16; ++neg) {
      std::uint16_t hn = h;
      for (unsigned i = 0; i < 4; ++i) {
        if (((neg >> i) & 1u) == 0) continue;
        const unsigned s = 1u << i;
        hn = static_cast<std::uint16_t>(((hn & kLow[i]) << s) |
                                        ((hn >> s) & kLow[i]));
      }
      for (int oneg = 0; oneg < 2; ++oneg) {
        const auto g = static_cast<std::uint16_t>(oneg != 0 ? ~hn : hn);
        if (first || g < best.canon) {
          best.canon = g;
          best.transform = t;
          best.transform.input_neg = neg;
          best.transform.output_neg = oneg != 0;
          first = false;
        }
      }
    }
  }
  return best;
}

int npn4_class_count() {
  std::unordered_set<std::uint16_t> classes;
  for (unsigned f = 0; f < 65536; ++f)
    classes.insert(npn4_canonize(static_cast<std::uint16_t>(f)).canon);
  return static_cast<int>(classes.size());
}

}  // namespace csat::tt
