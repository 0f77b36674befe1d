// Supporting analysis for Section III-C / Fig. 3: branching complexity of
// LUT functions.
//
//   * verifies the paper's worked example: C(AND2)=3, C(XOR2)=4;
//   * tabulates all 2-input gate classes;
//   * aggregates the cost distribution over all 222 NPN-4 classes — the
//     cost landscape the cost-customized mapper optimizes over;
//   * prints the extremes (XOR4-type functions are the most expensive,
//     AND4-type the cheapest), the paper's motivation for steering the
//     mapper away from XOR-shaped LUTs.
//
//   ./lutcost_table

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <vector>

#include "tt/isop.h"
#include "tt/npn.h"

using namespace csat;

int main() {
  std::printf("=== Branching complexity C(f) = |ISOP(f)| + |ISOP(~f)| ===\n\n");

  // --- the paper's Fig. 3 example ----------------------------------------
  struct Gate2 {
    const char* name;
    std::uint64_t bits;
  };
  const Gate2 gates[] = {
      {"AND2 (L1)", 0b1000}, {"OR2", 0b1110},  {"XOR2 (L2)", 0b0110},
      {"NAND2", 0b0111},     {"NOR2", 0b0001}, {"XNOR2", 0b1001},
      {"BUF(a)", 0b1010},    {"MUX-half a&~b", 0b0010},
  };
  std::printf("2-input gates:\n");
  std::printf("  %-16s %8s %8s %8s\n", "gate", "on-cubes", "off-cubes", "C(f)");
  for (const auto& g : gates)
    std::printf("  %-16s %8zu %8zu %8d\n", g.name, tt::isop(g.bits, 2).size(),
                tt::isop(~g.bits, 2).size(), tt::branching_cost(g.bits, 2));
  std::printf("  (paper: C_L1 = 3 for AND, C_L2 = 4 for XOR)\n\n");

  // --- NPN-4 class landscape ----------------------------------------------
  std::unordered_map<std::uint16_t, int> class_cost;  // canon -> min cost
  std::unordered_map<std::uint16_t, int> class_size;
  for (unsigned f = 0; f < 65536; ++f) {
    const auto canon = tt::npn4_canonize(static_cast<std::uint16_t>(f)).canon;
    const int cost = tt::branching_cost(f, 4);
    auto [it, inserted] = class_cost.try_emplace(canon, cost);
    if (!inserted) it->second = std::min(it->second, cost);
    ++class_size[canon];
  }
  std::printf("NPN-4 classes: %zu (expected 222)\n", class_cost.size());

  std::map<int, int> cost_histogram;  // min class cost -> #classes
  for (const auto& [canon, cost] : class_cost) ++cost_histogram[cost];
  std::printf("\ncost distribution over NPN-4 classes (min cost per class):\n");
  std::printf("  %6s %9s\n", "C(f)", "#classes");
  for (const auto& [cost, count] : cost_histogram)
    std::printf("  %6d %9d\n", cost, count);

  // Highlights: cheapest non-trivial and the XOR landmark.
  const std::uint64_t and4 = 0x8000;
  const std::uint64_t xor4 = 0x6996;
  const std::uint64_t maj = 0xE8E8;  // maj3 padded
  std::printf("\nlandmarks:\n");
  std::printf("  C(AND4)  = %2d  (cheapest non-constant class)\n",
              tt::branching_cost(and4, 4));
  std::printf("  C(MAJ3)  = %2d\n", tt::branching_cost(maj, 4));
  std::printf("  C(XOR4)  = %2d  (most expensive class: 2^(k-1) cubes/phase)\n",
              tt::branching_cost(xor4, 4));
  std::printf("\nthe cost-customized mapper (CostKind::kBranching) prices each\n"
              "cut by this metric, steering covers away from XOR-shaped LUTs —\n"
              "the paper's Section III-C design.\n");
  return 0;
}
