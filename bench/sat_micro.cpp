// Google-benchmark microbenchmarks for the CDCL solver — the substrate
// whose decision counter drives the RL reward and whose runtime dominates
// the paper's evaluation. Covers both presets (kissat-like, cadical-like)
// on representative families: random 3-SAT near threshold, pigeonhole
// (UNSAT, resolution-hard) and an adder-equivalence miter CNF. Every
// sequential benchmark reports props/sec — the BCP throughput the clause
// arena / watcher layout is tuned for.
//
// Three pairs of rows compare two arms on the same pooled instance family,
// one solve per instance per iteration, so tools/bench_ab.py can A/B each
// arm: the CNF preprocessor off/on before the solve
// (BM_SolveSimplify/<family>/off|on, simplify time included), DRAT
// emission into a discarding sink off/on (BM_SolveProof/<family>/off|on)
// and the Tseitin+CNF backend against the circuit-native one
// (BM_SolveBackend/<family>/cnf|circuit; pigeonhole reaches the circuit
// solver through cnf::cnf_to_aig; wide_adder_miter is where the circuit
// core's restart policy matters most). Every arm must return the family's
// reference verdict on every instance, or the row fails with an error.
//
// `sat_micro --smoke` bypasses Google Benchmark and runs a fixed CI gate:
// representative instances must finish with the right verdict and above a
// conservative propagation-throughput floor, so pathological BCP
// slowdowns fail CI instead of only showing up in manual bench runs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <ostream>
#include <span>
#include <streambuf>
#include <string_view>
#include <vector>

#include "cnf/cnf_to_aig.h"
#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "gen/miter.h"
#include "gen/pigeonhole.h"
#include "sat/circuit_solver.h"
#include "sat/portfolio.h"
#include "sat/proof.h"
#include "sat/solver.h"

using namespace csat;

namespace {

cnf::Cnf random_3sat(int vars, double ratio, std::uint64_t seed) {
  Rng rng(seed);
  cnf::Cnf f;
  f.add_vars(vars);
  const int clauses = static_cast<int>(vars * ratio);
  for (int i = 0; i < clauses; ++i) {
    std::vector<cnf::Lit> c;
    while (c.size() < 3) {
      const auto v = static_cast<std::uint32_t>(rng.next_below(vars));
      bool dup = false;
      for (auto l : c) dup |= l.var() == v;
      if (!dup) c.push_back(cnf::Lit::make(v, rng.next_bool()));
    }
    f.add_clause(c);
  }
  return f;
}

cnf::Cnf adder_miter_cnf(int width) {
  return cnf::tseitin_encode(gen::make_adder_miter(width)).cnf;
}

sat::SolverConfig preset(int index) {
  return index == 0 ? sat::SolverConfig::kissat_like()
                    : sat::SolverConfig::cadical_like();
}

/// Swallows everything written to it, so proof-overhead runs pay the full
/// DRAT formatting cost but no disk I/O and no unbounded buffering.
class NullBuf final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

/// Text-DRAT tracer into a NullBuf, counting steps as it goes.
class DiscardDrat final : public sat::ProofTracer {
 public:
  DiscardDrat() : stream_(&buf_), writer_(stream_) {}

  void add(std::span<const cnf::Lit> lits) override {
    writer_.add(lits);
    ++adds_;
  }
  void remove(std::span<const cnf::Lit> lits) override {
    writer_.remove(lits);
    ++deletes_;
  }

  std::uint64_t adds() const { return adds_; }
  std::uint64_t deletes() const { return deletes_; }

 private:
  NullBuf buf_;
  std::ostream stream_;
  sat::TextDratWriter writer_;
  std::uint64_t adds_ = 0;
  std::uint64_t deletes_ = 0;
};

void report_stats(benchmark::State& state, const sat::SolveResult& r,
                  double total_propagations) {
  state.counters["decisions"] = static_cast<double>(r.stats.decisions);
  state.counters["conflicts"] = static_cast<double>(r.stats.conflicts);
  state.counters["propagations"] = static_cast<double>(r.stats.propagations);
  // Propagation throughput across all iterations: the headline number for
  // the clause-arena / watcher-layout work (kIsRate divides by CPU time).
  state.counters["props/sec"] =
      benchmark::Counter(total_propagations, benchmark::Counter::kIsRate);
}

void run_sequential_case(benchmark::State& state, const cnf::Cnf& f) {
  sat::SolveResult last;
  double props = 0.0;
  for (auto _ : state) {
    last = sat::solve_cnf(f, preset(static_cast<int>(state.range(1))));
    props += static_cast<double>(last.stats.propagations);
    benchmark::DoNotOptimize(last.status);
  }
  report_stats(state, last, props);
}

void BM_Random3SatNearThreshold(benchmark::State& state) {
  const cnf::Cnf f = random_3sat(static_cast<int>(state.range(0)), 4.26, 42);
  run_sequential_case(state, f);
}

void BM_Pigeonhole(benchmark::State& state) {
  const cnf::Cnf f = gen::pigeonhole(static_cast<int>(state.range(0)));
  run_sequential_case(state, f);
}

void BM_AdderMiterUnsat(benchmark::State& state) {
  const cnf::Cnf f = adder_miter_cnf(static_cast<int>(state.range(0)));
  run_sequential_case(state, f);
}

// --- portfolio clause sharing on/off ----------------------------------------
// Same 4-worker race with and without the clause exchange; arg1 toggles
// sharing. The delta on resolution-hard UNSAT families (pigeonhole, adder
// miters) is the headline number for HordeSat-style glue sharing.

void run_portfolio_case(benchmark::State& state, const cnf::Cnf& f) {
  sat::PortfolioOptions opt;
  opt.num_workers = 4;
  opt.sharing.enabled = state.range(1) != 0;
  opt.configs = sat::default_portfolio(4);
  sat::PortfolioResult last;
  for (auto _ : state) {
    last = sat::solve_portfolio(f, opt);
    benchmark::DoNotOptimize(last.status);
  }
  state.counters["conflicts"] = static_cast<double>(last.stats.conflicts);
  state.counters["exported"] = static_cast<double>(last.clauses_exported);
  state.counters["imported"] = static_cast<double>(last.clauses_imported);
}

void BM_PortfolioPigeonhole(benchmark::State& state) {
  const cnf::Cnf f = gen::pigeonhole(static_cast<int>(state.range(0)));
  run_portfolio_case(state, f);
}

void BM_PortfolioAdderMiter(benchmark::State& state) {
  const cnf::Cnf f = adder_miter_cnf(static_cast<int>(state.range(0)));
  run_portfolio_case(state, f);
}

// --- two-arm comparisons on pooled families ---------------------------------

/// One comparison family, solved whole in every iteration: each instance
/// as a CNF and, for the families the backend rows use, as an AIG, plus
/// the verdict every arm must return on it.
struct Family {
  std::vector<cnf::Cnf> formulas;
  std::vector<aig::Aig> circuits;
  std::vector<sat::Status> expected;
};

/// Adder-equivalence miters: UNSAT by construction.
Family adder_miters(std::initializer_list<int> widths) {
  Family fam;
  for (int w : widths) {
    fam.circuits.push_back(gen::make_adder_miter(w));
    fam.formulas.push_back(cnf::tseitin_encode(fam.circuits.back()).cnf);
    fam.expected.push_back(sat::Status::kUnsat);
  }
  return fam;
}

/// Pigeonhole formulas, bridged to AIGs by cnf::cnf_to_aig: UNSAT by
/// construction.
Family pigeonholes(std::initializer_list<int> holes) {
  Family fam;
  for (int h : holes) {
    fam.formulas.push_back(gen::pigeonhole(h));
    fam.circuits.push_back(cnf::cnf_to_aig(fam.formulas.back()));
    fam.expected.push_back(sat::Status::kUnsat);
  }
  return fam;
}

/// Near-threshold random 3-SAT on 170 variables. The reference verdicts
/// come from a plain preset-0 solve, so an arm that preprocesses must
/// agree with one that does not.
Family random_3sats(int count) {
  Family fam;
  for (int s = 0; s < count; ++s) {
    fam.formulas.push_back(random_3sat(170, 4.26, 1000 + s));
    fam.expected.push_back(
        sat::solve_cnf(fam.formulas.back(), preset(0)).status);
  }
  return fam;
}

/// Fails the row when instance \p i's verdict differs from the family's;
/// the caller must leave the benchmark loop when this returns false.
bool verdict_ok(benchmark::State& state, const Family& fam, std::size_t i,
                sat::Status got) {
  if (got == fam.expected[i]) return true;
  state.SkipWithError("verdict disagrees with the family's reference");
  return false;
}

/// Preset-0 solve with or without cnf::simplify in front of it.
void BM_SolveSimplify(benchmark::State& state, const Family& fam,
                      bool simplify) {
  std::uint64_t conflicts = 0, vars = 0, clauses = 0;
  for (auto _ : state) {
    conflicts = vars = clauses = 0;
    for (std::size_t i = 0; i < fam.formulas.size(); ++i) {
      const cnf::Cnf& f = fam.formulas[i];
      sat::Status status = sat::Status::kUnsat;
      if (!simplify) {
        const auto r = sat::solve_cnf(f, preset(0));
        status = r.status;
        conflicts += r.stats.conflicts;
        vars += f.num_vars();
        clauses += f.num_clauses();
      } else {
        const auto pre = cnf::simplify(f);
        vars += pre.cnf.num_vars();
        clauses += pre.cnf.num_clauses();
        if (!pre.unsat) {
          const auto r = sat::solve_cnf(pre.cnf, preset(0));
          status = r.status;
          conflicts += r.stats.conflicts;
        }
      }
      if (!verdict_ok(state, fam, i, status)) return;
    }
    benchmark::DoNotOptimize(conflicts);
  }
  state.counters["conflicts"] = static_cast<double>(conflicts);
  state.counters["vars"] = static_cast<double>(vars);
  state.counters["clauses"] = static_cast<double>(clauses);
}

/// Preset-0 solve with or without a discarding text-DRAT tracer.
void BM_SolveProof(benchmark::State& state, const Family& fam, bool proof) {
  std::uint64_t conflicts = 0, adds = 0, deletes = 0;
  for (auto _ : state) {
    conflicts = adds = deletes = 0;
    for (std::size_t i = 0; i < fam.formulas.size(); ++i) {
      DiscardDrat sink;
      const auto r = sat::solve_cnf(fam.formulas[i], preset(0), {},
                                    proof ? &sink : nullptr);
      conflicts += r.stats.conflicts;
      adds += sink.adds();
      deletes += sink.deletes();
      if (!verdict_ok(state, fam, i, r.status)) return;
    }
    benchmark::DoNotOptimize(conflicts);
  }
  state.counters["conflicts"] = static_cast<double>(conflicts);
  state.counters["proof_adds"] = static_cast<double>(adds);
  state.counters["proof_deletes"] = static_cast<double>(deletes);
}

/// The Tseitin+CNF backend (the family's CNF, preset 0) or the
/// circuit-native backend (its AIG, the matching circuit config).
void BM_SolveBackend(benchmark::State& state, const Family& fam,
                     bool circuit) {
  const sat::CircuitSolverConfig circuit_cfg =
      sat::CircuitSolverConfig::from_cnf(preset(0));
  std::uint64_t conflicts = 0, props = 0, gate_props = 0, frontier = 0;
  for (auto _ : state) {
    conflicts = props = gate_props = frontier = 0;
    for (std::size_t i = 0; i < fam.formulas.size(); ++i) {
      sat::Status status = sat::Status::kUnknown;
      if (circuit) {
        const auto r = sat::solve_circuit(fam.circuits[i], circuit_cfg);
        status = r.status;
        conflicts += r.stats.conflicts;
        props += r.stats.propagations;
        gate_props += r.stats.gate_propagations;
        frontier = std::max(frontier, r.stats.max_frontier);
      } else {
        const auto r = sat::solve_cnf(fam.formulas[i], preset(0));
        status = r.status;
        conflicts += r.stats.conflicts;
        props += r.stats.propagations;
      }
      if (!verdict_ok(state, fam, i, status)) return;
    }
    benchmark::DoNotOptimize(conflicts);
  }
  state.counters["conflicts"] = static_cast<double>(conflicts);
  state.counters["propagations"] = static_cast<double>(props);
  if (circuit) {
    state.counters["gate_propagations"] = static_cast<double>(gate_props);
    state.counters["max_frontier"] = static_cast<double>(frontier);
  }
}

// --- `--smoke` CI gate ------------------------------------------------------

struct SmokeCase {
  const char* name;
  cnf::Cnf formula;
  sat::Status expected;
};

/// Release-mode BCP regression gate, registered as a CTest. Solves a fixed
/// instance set with both presets, requires the right verdicts, and fails
/// when aggregate propagation throughput drops below a floor that is ~4x
/// under current hardware numbers — generous enough for loaded CI runners,
/// tight enough that an accidental O(n) watch scan or arena pessimization
/// trips it. Override with CSAT_SMOKE_MIN_PROPS_PER_SEC (0 disables).
int run_smoke() {
  // This mix measures ~1.05 Mprops/s on the reference host; the 0.40 floor
  // keeps >2.5x headroom for loaded CI runners.
  double min_props_per_sec = 400e3;
  if (const char* env = std::getenv("CSAT_SMOKE_MIN_PROPS_PER_SEC"))
    min_props_per_sec = std::atof(env);

  SmokeCase cases[] = {
      {"pigeonhole(7)", gen::pigeonhole(7), sat::Status::kUnsat},
      {"pigeonhole(8)", gen::pigeonhole(8), sat::Status::kUnsat},
      {"adder_miter(16)", adder_miter_cnf(16), sat::Status::kUnsat},
      {"random3sat(100)", random_3sat(100, 4.26, 42), sat::Status::kUnknown},
  };

  int failures = 0;
  std::uint64_t total_props = 0;
  double total_seconds = 0.0;
  for (SmokeCase& c : cases) {
    sat::Status verdicts[2];
    for (int p = 0; p < 2; ++p) {
      Stopwatch watch;
      const auto r = sat::solve_cnf(c.formula, preset(p));
      const double secs = watch.seconds();
      total_props += r.stats.propagations;
      total_seconds += secs;
      verdicts[p] = r.status;
      std::printf("smoke %-16s preset=%d verdict=%d %8.1f ms %9llu props\n",
                  c.name, p, static_cast<int>(r.status), secs * 1e3,
                  static_cast<unsigned long long>(r.stats.propagations));
      if (c.expected != sat::Status::kUnknown && r.status != c.expected) {
        std::printf("FAIL: %s preset=%d returned the wrong verdict\n", c.name, p);
        ++failures;
      }
    }
    // Families without a pinned expectation still must be internally
    // consistent across presets.
    if (verdicts[0] != verdicts[1]) {
      std::printf("FAIL: %s presets disagree\n", c.name);
      ++failures;
    }
  }

  const double props_per_sec =
      total_seconds > 0.0 ? static_cast<double>(total_props) / total_seconds : 0.0;
  std::printf("smoke total: %.3f s, %llu props, %.2f Mprops/sec (floor %.2f)\n",
              total_seconds, static_cast<unsigned long long>(total_props),
              props_per_sec / 1e6, min_props_per_sec / 1e6);
  if (min_props_per_sec > 0.0 && props_per_sec < min_props_per_sec) {
    std::printf("FAIL: propagation throughput below floor\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

BENCHMARK(BM_Random3SatNearThreshold)
    ->Args({60, 0})
    ->Args({60, 1})
    ->Args({100, 0})
    ->Args({100, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Pigeonhole)
    ->Args({6, 0})
    ->Args({6, 1})
    ->Args({7, 0})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AdderMiterUnsat)
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({16, 0})
    ->Unit(benchmark::kMillisecond);
// arg0 = instance size, arg1 = sharing off/on.
BENCHMARK(BM_PortfolioPigeonhole)
    ->Args({7, 0})
    ->Args({7, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_PortfolioAdderMiter)
    ->Args({12, 0})
    ->Args({12, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_SolveSimplify, adder_miter/off, adder_miters({16, 32, 48}), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveSimplify, adder_miter/on, adder_miters({16, 32, 48}), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveSimplify, random3sat/off, random_3sats(8), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveSimplify, random3sat/on, random_3sats(8), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveProof, pigeonhole/off, pigeonholes({7, 8}), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveProof, pigeonhole/on, pigeonholes({7, 8}), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveProof, adder_miter/off, adder_miters({16, 32}), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveProof, adder_miter/on, adder_miters({16, 32}), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveBackend, adder_miter/cnf, adder_miters({8, 16}), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveBackend, adder_miter/circuit, adder_miters({8, 16}), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveBackend, wide_adder_miter/cnf, adder_miters({48, 64}), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveBackend, wide_adder_miter/circuit, adder_miters({48, 64}), true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveBackend, pigeonhole/cnf, pigeonholes({6, 7}), false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SolveBackend, pigeonhole/circuit, pigeonholes({6, 7}), true)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--smoke") return run_smoke();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
