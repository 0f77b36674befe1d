// Reproduces Table I: statistics of the RL training dataset (# Gates,
// # PIs, Depth, # Clauses after CNF transformation, baseline solving time),
// reported as Avg / Std / Min / Max over the suite.
//
// The paper's dataset is 200 proprietary industrial LEC/ATPG instances
// (gates 60..24178, time 0.04..6.68 s on a Xeon E5-2630); ours is the
// synthetic analogue at reduced scale, drawn by gen::make_training_suite.
//
//   ./table1_dataset [--count=N] [--seed=S] [--full]

#include <cstdio>

#include "bench_util.h"
#include "cnf/tseitin.h"
#include "common/stopwatch.h"
#include "gen/suite.h"
#include "sat/solver.h"

using namespace csat;

namespace {
constexpr const char* kUsage =
    "usage: table1_dataset [--count=N] [--seed=S] [--full]\n";
}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv, {"count", "seed", "full"}, kUsage);
  const int count =
      static_cast<int>(flags.get_int("count", flags.has("full") ? 200 : 60));
  const std::uint64_t seed = flags.get_int("seed", 7);

  std::printf("=== Table I: statistics of the training dataset ===\n");
  std::printf("(%d synthetic LEC/ATPG instances, seed %llu)\n\n", count,
              static_cast<unsigned long long>(seed));

  const auto suite = gen::make_training_suite(count, seed);
  std::vector<double> gates, pis, depth, clauses, time_s;
  int lec = 0, atpg = 0;

  for (const auto& inst : suite) {
    (inst.kind == gen::Instance::Kind::kLec ? lec : atpg)++;
    gates.push_back(static_cast<double>(inst.circuit.num_ands()));
    pis.push_back(static_cast<double>(inst.circuit.num_pis()));
    depth.push_back(static_cast<double>(inst.circuit.depth()));
    const auto enc = cnf::tseitin_encode(inst.circuit);
    clauses.push_back(static_cast<double>(enc.cnf.num_clauses()));
    Stopwatch watch;
    sat::Limits limits;
    limits.max_conflicts = 2000000;
    (void)sat::solve_cnf(enc.cnf, sat::SolverConfig::kissat_like(), limits);
    time_s.push_back(watch.seconds());
  }

  std::printf("mix: %d LEC + %d ATPG instances\n\n", lec, atpg);
  std::printf("%-12s %12s %12s %12s %12s\n", "", "Avg.", "Std.", "Min.", "Max.");
  const auto row = [](const char* name, const bench::Summary& s,
                      const char* fmt) {
    std::printf("%-12s ", name);
    std::printf(fmt, s.avg);
    std::printf(" ");
    std::printf(fmt, s.stddev);
    std::printf(" ");
    std::printf(fmt, s.min);
    std::printf(" ");
    std::printf(fmt, s.max);
    std::printf("\n");
  };
  row("# Gates", bench::summarize(gates), "%12.2f");
  row("# PIs", bench::summarize(pis), "%12.2f");
  row("Depth", bench::summarize(depth), "%12.2f");
  row("# Clauses", bench::summarize(clauses), "%12.2f");
  row("Time (s)", bench::summarize(time_s), "%12.4f");

  std::printf("\npaper reference (industrial scale): gates avg 4299.06 "
              "(60..24178), clauses avg 10687.28, time avg 2.01s (0.04..6.68)\n");
  return 0;
}
