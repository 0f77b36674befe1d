// Golden outputs of the synthesis and LUT-mapping layers on a fixed suite
// draw. Each row hashes, in order, every node, fanin, PO, LUT fanin and LUT
// table the layer produces, so a change that alters a single output node or
// table changes the row. The synthesis and mapping constants were recorded
// from a straightforward multi-word truth-table implementation (per-minterm
// cut tables, ISOP + factoring per priced candidate), the encoding constants
// from the ISOP encoder that ran on those tables; the single-word kernel
// must keep every output bit-identical to them.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <span>
#include <vector>

#include "gen/suite.h"
#include "lut/lut_to_cnf.h"
#include "lut/mapper.h"
#include "synth/recipe.h"

namespace csat {
namespace {

class Fingerprint {
 public:
  void add(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
    h_ ^= h_ >> 29;
  }

  void add(const aig::Aig& g) {
    add(g.num_nodes());
    add(g.num_pis());
    for (std::uint32_t n = 1; n < g.num_nodes(); ++n) {
      if (g.is_and(n)) {
        add(g.fanin0(n).raw);
        add(g.fanin1(n).raw);
      } else {
        add(~std::uint64_t{0});  // PI marker
      }
    }
    for (aig::Lit po : g.pos()) add(po.raw);
  }

  void add(const lut::LutNetwork& net) {
    add(net.num_nodes());
    for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
      if (net.is_pi(n)) {
        add(~std::uint64_t{0});
        continue;
      }
      add(net.fanins(n).size());
      for (std::uint32_t f : net.fanins(n)) add(f);
      add(net.fanins(n).size());  // the table's arity
      add(net.func(n));
    }
    for (const auto& po : net.pos()) {
      add(static_cast<std::uint64_t>(po.kind));
      add(po.node);
      add(po.complemented ? 1 : 0);
    }
  }

  void add(const lut::LutCnfResult& enc) {
    add(enc.cnf.num_vars());
    add(enc.cnf.num_clauses());
    for (std::size_t i = 0; i < enc.cnf.num_clauses(); ++i) {
      const auto clause = enc.cnf.clause(i);
      add(clause.size());
      for (cnf::Lit l : clause) add(l.x);
    }
    add(enc.trivially_sat ? 1 : 0);
    add(enc.trivially_unsat ? 1 : 0);
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::vector<gen::Instance> golden_draw() {
  gen::SuiteParams p;
  p.count = 20;
  p.seed = 2024;
  return gen::make_suite(p);
}

lut::MapperParams mapper(int k, lut::CostKind cost) {
  lut::MapperParams p;
  p.lut_size = k;
  p.cost = cost;
  return p;
}

void expect_row(const char* name, const Fingerprint& fp, std::uint64_t want) {
  EXPECT_EQ(fp.value(), want)
      << name << ": got 0x" << std::hex << fp.value() << ", want 0x" << want;
}

TEST(SynthGolden, EveryOpMatchesRecordedOutputs) {
  const auto suite = golden_draw();
  Fingerprint rw, rf, b, rs, c2;
  for (const auto& inst : suite) {
    rw.add(synth::apply_op(inst.circuit, synth::SynthOp::kRewrite));
    rf.add(synth::apply_op(inst.circuit, synth::SynthOp::kRefactor));
    b.add(synth::apply_op(inst.circuit, synth::SynthOp::kBalance));
    rs.add(synth::apply_op(inst.circuit, synth::SynthOp::kResub));
    c2.add(synth::apply_recipe(inst.circuit, synth::compress2_recipe()));
  }
  expect_row("rewrite", rw, 0x3539e5fc51435006ULL);
  expect_row("refactor", rf, 0x424c8f14dc906f27ULL);
  expect_row("balance", b, 0x1c63b7cb4d097b8cULL);
  expect_row("resub", rs, 0x7e45f8041d684883ULL);
  expect_row("compress2", c2, 0x54bfd1c6d6444838ULL);
}

// The sweep and the normalization prelude that ends with it. Recorded when
// the sweep was added; the rows above did not move.
TEST(SynthGolden, SweepAndNormalizationMatchRecordedOutputs) {
  Fingerprint sw, norm;
  for (const auto& inst : golden_draw()) {
    sw.add(synth::apply_op(inst.circuit, synth::SynthOp::kSweep));
    norm.add(synth::apply_recipe(inst.circuit, synth::normalization_recipe()));
  }
  expect_row("sweep", sw, 0x7336fd9eb0269d3cULL);
  expect_row("normalize", norm, 0x17af9cfbe9256e42ULL);
}

/// One mapper setting and the fingerprint of what it produced.
struct MapperRow {
  const char* name;
  lut::MapperParams params;
  std::uint64_t want;
  Fingerprint fp;
};

/// Maps every golden instance, before and after compress2, under every row
/// and hands each mapping to \p record with its row.
template <typename Record>
void map_golden_draw(std::span<MapperRow> rows, Record record) {
  for (const auto& inst : golden_draw()) {
    const aig::Aig compressed =
        synth::apply_recipe(inst.circuit, synth::compress2_recipe());
    for (MapperRow& row : rows)
      for (const aig::Aig* g : {&inst.circuit, &compressed})
        record(row, lut::map_to_luts(*g, row.params));
  }
}

TEST(SynthGolden, LutMappingsMatchRecordedOutputs) {
  MapperRow rows[] = {
      {"area k=4", mapper(4, lut::CostKind::kArea), 0x5474fd0bc419dfc2ULL, {}},
      {"branching k=4", mapper(4, lut::CostKind::kBranching),
       0x7a54db6b4d8ab711ULL, {}},
      {"area k=6", mapper(6, lut::CostKind::kArea), 0xa0aaaac9aa32207cULL, {}},
      {"branching k=6", mapper(6, lut::CostKind::kBranching),
       0x697b3d6ad1f9f16eULL, {}},
  };
  map_golden_draw(rows, [](MapperRow& row, const lut::MappingResult& m) {
    row.fp.add(m.netlist);
    row.fp.add(static_cast<std::uint64_t>(m.total_branching));
  });
  for (const MapperRow& row : rows) expect_row(row.name, row.fp, row.want);
}

TEST(SynthGolden, LutEncodingsMatchRecordedOutputs) {
  // The raw ISOP encoding of every mapped netlist: variable count, each
  // clause with its literal order, and the trivial-verdict flags.
  MapperRow rows[] = {
      {"area k=4", mapper(4, lut::CostKind::kArea), 0x7c7ab723b15bb964ULL, {}},
      {"branching k=4", mapper(4, lut::CostKind::kBranching),
       0xb7a62d428f7d2832ULL, {}},
      {"area k=6", mapper(6, lut::CostKind::kArea), 0xb08d12f73bee5457ULL, {}},
      {"branching k=6", mapper(6, lut::CostKind::kBranching),
       0xf9282cd641df519fULL, {}},
  };
  map_golden_draw(rows, [](MapperRow& row, const lut::MappingResult& m) {
    row.fp.add(lut::lut_to_cnf(m.netlist));
  });
  for (const MapperRow& row : rows) expect_row(row.name, row.fp, row.want);
}

}  // namespace
}  // namespace csat
