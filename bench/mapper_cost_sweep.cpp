// Ablation bench for the mapper cost function: sweeps the per-LUT offset
// added to the paper's branching complexity C(f) and compares against the
// conventional area cost.
//
// Motivation: C(f) counts the clause/branch surface of each LUT, but every
// mapped LUT also introduces one CNF variable; the offset interpolates
// between "minimize clauses" (0) and "minimize LUTs" (large). The paper
// uses the pure metric on industrial-scale instances; at our scale the
// sweep shows where the trade-off sits.
//
//   ./mapper_cost_sweep [--instances=N] [--seed=S] [--budget=CONFLICTS]
//                       [--family=mixed|mult|adder|alu|parity|random]
//                       [--wmin=W] [--wmax=W]

#include <cstdio>

#include "bench_util.h"
#include "cnf/tseitin.h"
#include "common/stopwatch.h"
#include "core/preprocessor.h"
#include "gen/suite.h"
#include "rl/policy.h"
#include "sat/solver.h"

using namespace csat;

namespace {
constexpr const char* kUsage =
    "usage: mapper_cost_sweep [--instances=N] [--seed=S] [--budget=CONFLICTS]\n"
    "                         [--family=mixed|mult|adder|alu|parity|random]\n"
    "                         [--wmin=W] [--wmax=W]\n";
}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(
      argc, argv, {"instances", "seed", "budget", "family", "wmin", "wmax"},
      kUsage);
  const int instances = static_cast<int>(flags.get_int("instances", 8));
  const std::uint64_t seed = flags.get_int("seed", 9);
  const std::uint64_t budget = flags.get_int("budget", 2000000);
  const std::string family = flags.get_string("family", "mixed");
  if (family != "mixed" && family != "mult" && family != "adder" &&
      family != "alu" && family != "parity" && family != "random")
    flags.fail("unknown family: " + family);

  std::printf("=== Mapper cost-function sweep (design-choice ablation) ===\n");
  std::printf("(%d hard instances, compress2 recipe fixed, kissat-like)\n\n",
              instances);

  auto suite = gen::make_test_suite(instances, seed);
  if (family != "mixed") {
    gen::SuiteParams p;
    p.count = instances;
    p.seed = seed;
    p.atpg_fraction = 0.2;
    p.bug_fraction = 0.4;
    p.multiplier.weight = family == "mult" ? 1.0 : 0.0;
    p.adder.weight = family == "adder" ? 1.0 : 0.0;
    p.alu.weight = family == "alu" ? 1.0 : 0.0;
    p.parity.weight = family == "parity" ? 1.0 : 0.0;
    p.random_xor.weight = family == "random" ? 1.0 : 0.0;
    const int wmin = static_cast<int>(flags.get_int("wmin", 0));
    const int wmax = static_cast<int>(flags.get_int("wmax", 0));
    p.multiplier = {wmin > 0 ? wmin : 7, wmax > 0 ? wmax : 8,
                    p.multiplier.weight};
    p.adder = {wmin > 0 ? wmin : 24, wmax > 0 ? wmax : 48, p.adder.weight};
    p.alu = {wmin > 0 ? wmin : 10, wmax > 0 ? wmax : 16, p.alu.weight};
    p.parity = {wmin > 0 ? wmin : 16, wmax > 0 ? wmax : 32, p.parity.weight};
    p.random_xor = {wmin > 0 ? wmin : 8, wmax > 0 ? wmax : 12,
                    p.random_xor.weight};
    suite = gen::make_suite(p);
    std::printf("(family restricted to: %s)\n", family.c_str());
  }

  struct Variant {
    const char* name;
    lut::CostKind kind;
    double offset;
  };
  const Variant variants[] = {
      {"area (conventional)", lut::CostKind::kArea, 0.0},
      {"C(f) pure (paper)", lut::CostKind::kBranching, 0.0},
      {"C(f) + 1", lut::CostKind::kBranching, 1.0},
      {"C(f) + 2", lut::CostKind::kBranching, 2.0},
      {"C(f) + 4", lut::CostKind::kBranching, 4.0},
      {"C(f) + 8", lut::CostKind::kBranching, 8.0},
  };

  std::printf("%-22s %12s %12s %12s %10s\n", "variant", "decisions",
              "clauses", "luts", "time(s)");
  for (const auto& v : variants) {
    std::uint64_t decisions = 0;
    std::size_t clauses = 0, luts = 0;
    double seconds = 0.0;
    for (const auto& inst : suite) {
      core::PreprocessOptions popt;
      popt.mapper.cost = v.kind;
      popt.mapper.branching_lut_offset = v.offset;
      rl::FixedRecipePolicy policy(synth::compress2_recipe());
      Stopwatch watch;
      const auto p = core::Preprocessor(popt).run(inst.circuit, policy);
      if (!p.trivially_sat && !p.trivially_unsat) {
        sat::Limits limits;
        limits.max_conflicts = budget;
        const auto r =
            sat::solve_cnf(p.cnf, sat::SolverConfig::kissat_like(), limits);
        decisions += r.stats.decisions;
      }
      seconds += watch.seconds();
      clauses += p.cnf.num_clauses();
      luts += p.num_luts;
    }
    std::printf("%-22s %12llu %12zu %12zu %10.2f\n", v.name,
                static_cast<unsigned long long>(decisions), clauses, luts,
                seconds);
  }
  std::printf("\n(decisions = the paper's branching-count objective, Eq. 3)\n");
  return 0;
}
