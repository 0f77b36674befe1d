// Google-benchmark microbenchmarks for the CDCL solver — the substrate
// whose decision counter drives the RL reward and whose runtime dominates
// the paper's evaluation. Covers both presets (kissat-like, cadical-like)
// on representative families: random 3-SAT near threshold, pigeonhole
// (UNSAT, resolution-hard) and an adder-equivalence miter CNF. Every
// sequential benchmark reports props/sec — the BCP throughput the clause
// arena / watcher layout is tuned for.
//
// `sat_micro --smoke` bypasses Google Benchmark and runs a fixed CI gate:
// representative instances must finish with the right verdict and above a
// conservative propagation-throughput floor, so pathological BCP
// slowdowns fail CI instead of only showing up in manual bench runs.
//
// `sat_micro --json <path>` (optionally `--mean=N`, default 3) runs the
// fixed family set sequentially with both presets and writes
// machine-readable results (family, preset, wall_ms, props/sec, conflicts,
// inprocessing counters) — the CI Release lane archives this as
// BENCH_sat_micro.json so the perf trajectory is recorded per commit.
//
// Inprocessing ablation flags apply to every mode (benchmarks, --smoke,
// --json): `--trail-reuse=on|off --vivify=on|off --adaptive=on|off` toggle
// restart trail reuse, clause vivification and adaptive glue export on
// both presets, so before/after comparisons are one flag flip.
// `--simplify=on|off` (default off, so the --smoke BCP floor keeps
// measuring raw search) runs the CNF preprocessor (cnf/simplify.h) before
// every sequential solve. Independently of that flag, `--json` always
// appends a measured simplify on/off comparison ("simplify" block) for the
// adder_miter and random3sat families.
//
// `--proof=on|off` (default off) attaches a DRAT tracer to every
// sequential solve — the proof text is formatted and discarded, so the
// flag measures pure emission overhead without disk I/O. Independently of
// that flag, `--json` always appends a measured proof on/off comparison
// ("proof" block) on the UNSAT families, recording wall time both ways
// plus the proof's add/delete step counts.
//
// `--json` also appends a "circuit" block: the circuit-native backend
// (sat/circuit_solver.h, PR 9) vs the Tseitin+CNF backend on the
// adder-miter family (solved directly on the AIG) and the pigeonhole
// family (bridged through cnf::cnf_to_aig), with gate-domain counters
// (gate propagations, justification decisions, frontier high-water mark)
// next to the CNF arm's numbers. Verdict agreement is self-checked.
//
// `sat_micro --smoke-circuit` is the companion CI gate: a fixed mixed
// 16-instance generated suite (gen/suite.h) solved by BOTH backends;
// any circuit-vs-CNF verdict disagreement or wrong expected verdict exits
// nonzero.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "cnf/cnf_to_aig.h"
#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "gen/miter.h"
#include "gen/suite.h"
#include "sat/circuit_solver.h"
#include "sat/portfolio.h"
#include "sat/proof.h"
#include "sat/solver.h"

using namespace csat;

namespace {

struct Ablation {
  bool trail_reuse = true;
  bool vivify = true;
  bool adaptive = true;
  // CNF preprocessing before every sequential solve. Off by default so the
  // --smoke throughput floor keeps measuring raw search.
  bool simplify = false;
  // DRAT emission into a discarding sink on every sequential solve. Off by
  // default for the same reason.
  bool proof = false;
  // 0 = keep the preset's default; sweepable for tuning runs.
  std::uint64_t vivify_interval = 0;
  std::uint32_t vivify_effort = 0;
};
Ablation g_ablation;

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

cnf::Cnf pigeonhole(int holes) {
  const int pigeons = holes + 1;
  cnf::Cnf f;
  f.add_vars(pigeons * holes);
  const auto var = [&](int p, int h) {
    return static_cast<std::uint32_t>(p * holes + h);
  };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<cnf::Lit> clause;
    for (int h = 0; h < holes; ++h)
      clause.push_back(cnf::Lit::make(var(p, h), false));
    f.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        f.add_binary(cnf::Lit::make(var(p1, h), true),
                     cnf::Lit::make(var(p2, h), true));
  return f;
}

cnf::Cnf adder_miter_cnf(int width) {
  return cnf::tseitin_encode(gen::make_adder_miter(width)).cnf;
}

sat::SolverConfig preset(int index) {
  sat::SolverConfig c = index == 0 ? sat::SolverConfig::kissat_like()
                                   : sat::SolverConfig::cadical_like();
  c.restart_reuse_trail = g_ablation.trail_reuse;
  c.vivify = g_ablation.vivify;
  if (g_ablation.vivify_interval != 0)
    c.vivify_interval = g_ablation.vivify_interval;
  if (g_ablation.vivify_effort != 0)
    c.vivify_effort_permille = g_ablation.vivify_effort;
  return c;
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

/// Sequential solve honouring the --simplify ablation (preprocess first;
/// UNSAT short-circuits the solver entirely) with an optional DRAT sink.
/// With simplify on, the preprocessor traces into the sink directly
/// (original-variable space) and the solver's post-remap steps are
/// translated back through RemapTracer, mirroring core/pipeline.
sat::SolveResult solve_traced(const cnf::Cnf& f, const sat::SolverConfig& cfg,
                              sat::ProofTracer* proof) {
  if (!g_ablation.simplify) return sat::solve_cnf(f, cfg, {}, proof);
  cnf::SimplifyParams sp;
  sp.proof = proof;
  const auto pre = cnf::simplify(f, sp);
  if (pre.unsat) {
    sat::SolveResult r;
    r.status = sat::Status::kUnsat;
    return r;
  }
  if (proof == nullptr) return sat::solve_cnf(pre.cnf, cfg);
  sat::RemapTracer remap(*proof, pre.inverse_map);
  return sat::solve_cnf(pre.cnf, cfg, {}, &remap);
}

sat::SolveResult solve_sequential(const cnf::Cnf& f,
                                  const sat::SolverConfig& cfg) {
  if (!g_ablation.proof) return solve_traced(f, cfg, nullptr);
  DiscardDrat sink;
  return solve_traced(f, cfg, &sink);
}

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
    last = solve_sequential(f, preset(static_cast<int>(state.range(1))));
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
  const cnf::Cnf f = pigeonhole(static_cast<int>(state.range(0)));
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
  opt.sharing.adaptive = g_ablation.adaptive;
  opt.configs = sat::default_portfolio(4);
  for (auto& c : opt.configs) {
    c.restart_reuse_trail = g_ablation.trail_reuse;
    c.vivify = g_ablation.vivify;
  }
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
  const cnf::Cnf f = pigeonhole(static_cast<int>(state.range(0)));
  run_portfolio_case(state, f);
}

void BM_PortfolioAdderMiter(benchmark::State& state) {
  const cnf::Cnf f = adder_miter_cnf(static_cast<int>(state.range(0)));
  run_portfolio_case(state, f);
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
      {"pigeonhole(7)", pigeonhole(7), sat::Status::kUnsat},
      {"pigeonhole(8)", pigeonhole(8), sat::Status::kUnsat},
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
      const auto r = solve_sequential(c.formula, preset(p));
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

// --- `--smoke-circuit` CI gate ----------------------------------------------

/// Release-mode circuit-backend agreement gate, registered as the
/// smoke.circuit_vs_cnf CTest: a fixed mixed 16-instance generated suite
/// (LEC + ATPG miters, a fraction with injected bugs => SAT) is solved by
/// the circuit-native backend AND the Tseitin+CNF backend; the two
/// verdicts must agree on every instance, every circuit SAT witness must
/// satisfy the Tseitin encoding of its instance, and no instance may time
/// out. Any failure exits nonzero.
int run_smoke_circuit() {
  gen::SuiteParams params;
  params.count = 16;
  params.seed = 0xC19C0117;
  const auto suite = gen::make_suite(params);

  const sat::SolverConfig cnf_cfg = preset(0);
  const sat::CircuitSolverConfig circ_cfg =
      sat::CircuitSolverConfig::from_cnf(cnf_cfg);

  int failures = 0;
  int sat_count = 0, unsat_count = 0;
  double circuit_seconds = 0.0, cnf_seconds = 0.0;
  for (const gen::Instance& inst : suite) {
    Stopwatch circ_watch;
    const auto circ = sat::solve_circuit(inst.circuit, circ_cfg);
    circuit_seconds += circ_watch.seconds();

    const auto enc = cnf::tseitin_encode(inst.circuit);
    sat::Status cnf_status = sat::Status::kUnknown;
    Stopwatch cnf_watch;
    if (enc.trivially_unsat) {
      cnf_status = sat::Status::kUnsat;
    } else if (enc.trivially_sat) {
      cnf_status = sat::Status::kSat;
    } else {
      cnf_status = sat::solve_cnf(enc.cnf, cnf_cfg).status;
    }
    cnf_seconds += cnf_watch.seconds();

    std::printf("smoke-circuit %-28s circuit=%d cnf=%d\n", inst.name.c_str(),
                static_cast<int>(circ.status), static_cast<int>(cnf_status));
    if (circ.status == sat::Status::kUnknown ||
        cnf_status == sat::Status::kUnknown) {
      std::printf("FAIL: %s: a backend returned UNKNOWN\n", inst.name.c_str());
      ++failures;
      continue;
    }
    if (circ.status != cnf_status) {
      std::printf("FAIL: %s: circuit and CNF backends disagree\n",
                  inst.name.c_str());
      ++failures;
      continue;
    }
    if (circ.status == sat::Status::kSat) {
      ++sat_count;
      // The circuit witness must be a model of the *CNF encoding* too:
      // assign every node its evaluated value and check clause by clause.
      if (!enc.trivially_sat) {
        std::vector<bool> model(enc.cnf.num_vars(), false);
        for (std::size_t node = 0; node < enc.node2var.size(); ++node) {
          const std::uint32_t v = enc.node2var[node];
          if (v == UINT32_MAX) continue;
          model[v] = circ.node_values[node] != 0;
        }
        if (!enc.cnf.satisfied_by(model)) {
          std::printf("FAIL: %s: circuit witness violates the Tseitin CNF\n",
                      inst.name.c_str());
          ++failures;
        }
      }
    } else {
      ++unsat_count;
    }
  }
  std::printf(
      "smoke-circuit total: %zu instances (%d SAT / %d UNSAT), "
      "circuit %.3f s vs cnf %.3f s\n",
      suite.size(), sat_count, unsat_count, circuit_seconds, cnf_seconds);
  // The generated mix must actually exercise both verdicts, or the gate
  // silently degrades into a one-sided check.
  if (sat_count == 0 || unsat_count == 0) {
    std::printf("FAIL: suite did not cover both SAT and UNSAT\n");
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

// --- `--json <path>` machine-readable run -----------------------------------

/// Mean-of-N run over aggregated instance families, written as one JSON
/// document — the CI perf artifact committed as BENCH_sat_micro.json.
///
/// The CDCL search is deterministic but chaotic: one instance's wall time
/// swings wildly under any heuristic perturbation, so each *sequential*
/// family pools several instances and both presets under three solver
/// seeds, and wall time is the family total — systematic effects survive
/// the pooling, single-trajectory lotteries average out. Portfolio
/// families run the 4-worker sharing race on one hard instance (real
/// time), repeated per mean iteration.
int run_json(const char* path, int repeats) {
  struct Family {
    const char* name;
    std::vector<cnf::Cnf> instances;
  };
  Family families[] = {
      {"pigeonhole", {}},
      {"adder_miter", {}},
      {"random3sat", {}},
  };
  families[0].instances.push_back(pigeonhole(7));
  families[0].instances.push_back(pigeonhole(8));
  for (int w : {16, 32, 48, 64})
    families[1].instances.push_back(adder_miter_cnf(w));
  for (int s = 0; s < 12; ++s)
    families[2].instances.push_back(random_3sat(170, 4.26, 1000 + s));
  constexpr int kSolverSeeds = 4;

  std::string out = "{\n  \"bench\": \"sat_micro\",\n";
  out += "  \"config\": {\"trail_reuse\": ";
  out += g_ablation.trail_reuse ? "true" : "false";
  out += ", \"vivify\": ";
  out += g_ablation.vivify ? "true" : "false";
  out += ", \"adaptive\": ";
  out += g_ablation.adaptive ? "true" : "false";
  out += ", \"simplify\": ";
  out += g_ablation.simplify ? "true" : "false";
  out += ", \"proof\": ";
  out += g_ablation.proof ? "true" : "false";
  out += ", \"mean_of\": " + std::to_string(repeats) +
         ", \"solver_seeds\": " + std::to_string(kSolverSeeds) + "},\n";
  out += "  \"results\": [\n";
  bool first = true;
  const auto emit = [&](const char* family, double mean_seconds,
                        std::uint64_t props, std::uint64_t conflicts,
                        std::uint64_t decisions, std::uint64_t reused,
                        std::uint64_t vivified, std::uint64_t viv_lits,
                        std::uint64_t binary_props, std::uint64_t relocations,
                        std::uint64_t watch_bytes) {
    const double pps = mean_seconds > 0.0
                           ? static_cast<double>(props) / mean_seconds
                           : 0.0;
    char line[768];
    std::snprintf(
        line, sizeof(line),
        "    %s{\"family\": \"%s\", \"wall_ms\": %.3f, "
        "\"props_per_sec\": %.0f, \"conflicts\": %llu, \"decisions\": %llu, "
        "\"reused_trails\": %llu, "
        "\"vivified_clauses\": %llu, \"vivify_strengthened_lits\": %llu, "
        "\"binary_props\": %llu, \"watcher_relocations\": %llu, "
        "\"watch_bytes\": %llu}",
        first ? "" : ",", family, mean_seconds * 1e3, pps,
        static_cast<unsigned long long>(conflicts),
        static_cast<unsigned long long>(decisions),
        static_cast<unsigned long long>(reused),
        static_cast<unsigned long long>(vivified),
        static_cast<unsigned long long>(viv_lits),
        static_cast<unsigned long long>(binary_props),
        static_cast<unsigned long long>(relocations),
        static_cast<unsigned long long>(watch_bytes));
    out += line;
    out += '\n';
    first = false;
    std::printf("json %-24s %9.1f ms  %6.2f Mprops/s  %llu conflicts\n",
                family, mean_seconds * 1e3, pps / 1e6,
                static_cast<unsigned long long>(conflicts));
  };

  for (Family& fam : families) {
    double total_seconds = 0.0;
    std::uint64_t props = 0, conflicts = 0, decisions = 0;
    std::uint64_t reused = 0, vivified = 0, viv_lits = 0;
    std::uint64_t binary_props = 0, relocations = 0, watch_bytes = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      props = conflicts = decisions = reused = vivified = viv_lits =
          binary_props = relocations = watch_bytes = 0;
      for (int p = 0; p < 2; ++p) {
        for (int sd = 0; sd < kSolverSeeds; ++sd) {
          sat::SolverConfig cfg = preset(p);
          cfg.seed += static_cast<std::uint64_t>(sd) * 7919;
          for (const cnf::Cnf& f : fam.instances) {
            Stopwatch watch;
            const auto r = solve_sequential(f, cfg);
            total_seconds += watch.seconds();
            props += r.stats.propagations;
            conflicts += r.stats.conflicts;
            decisions += r.stats.decisions;
            reused += r.stats.reused_trails;
            vivified += r.stats.vivified_clauses;
            viv_lits += r.stats.vivify_strengthened_lits;
            binary_props += r.stats.binary_props;
            relocations += r.stats.watcher_relocations;
            // watch_bytes is a footprint gauge, not a counter: report the
            // largest per-solve footprint the family reached.
            watch_bytes = std::max(watch_bytes, r.stats.watch_bytes);
          }
        }
      }
    }
    emit(fam.name, total_seconds / repeats, props, conflicts, decisions,
         reused, vivified, viv_lits, binary_props, relocations, watch_bytes);
  }

  // Portfolio families: the 4-worker sharing race (levers per ablation
  // flags, incl. fixpoint import + adaptive export) on hard instances.
  struct PortfolioFamily {
    const char* name;
    cnf::Cnf formula;
  };
  PortfolioFamily races[] = {
      {"portfolio_pigeonhole(8)", pigeonhole(8)},
      {"portfolio_adder_miter(48)", adder_miter_cnf(48)},
  };
  for (PortfolioFamily& race : races) {
    double total_seconds = 0.0;
    std::uint64_t conflicts = 0, imported = 0;
    std::uint64_t props = 0, binary_props = 0, relocations = 0;
    std::uint64_t watch_bytes = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      sat::PortfolioOptions opt;
      opt.num_workers = 4;
      opt.sharing.adaptive = g_ablation.adaptive;
      opt.sharing.import_at_fixpoint = g_ablation.adaptive;
      opt.configs =
          sat::default_portfolio(4, 91648253 + static_cast<std::uint64_t>(rep));
      for (auto& cfg : opt.configs) {
        cfg.restart_reuse_trail = g_ablation.trail_reuse;
        cfg.vivify = g_ablation.vivify;
      }
      Stopwatch watch;
      const auto r = sat::solve_portfolio(race.formula, opt);
      total_seconds += watch.seconds();
      conflicts += r.stats.conflicts;
      imported += r.clauses_imported;
      // Race-wide effort totals (every worker, winners and losers): the
      // portfolio's aggregate BCP throughput over real time.
      props += r.total_propagations;
      binary_props += r.total_binary_props;
      relocations += r.total_watcher_relocations;
      watch_bytes = std::max(watch_bytes, r.total_watch_bytes);
    }
    const double mean_seconds = total_seconds / repeats;
    const double pps =
        mean_seconds > 0.0 ? static_cast<double>(props / repeats) / mean_seconds
                           : 0.0;
    char line[512];
    std::snprintf(line, sizeof(line),
                  "    ,{\"family\": \"%s\", \"wall_ms\": %.3f, "
                  "\"props_per_sec\": %.0f, \"conflicts\": %llu, "
                  "\"imported\": %llu, \"binary_props\": %llu, "
                  "\"watcher_relocations\": %llu, \"watch_bytes\": %llu}",
                  race.name, mean_seconds * 1e3, pps,
                  static_cast<unsigned long long>(conflicts / repeats),
                  static_cast<unsigned long long>(imported / repeats),
                  static_cast<unsigned long long>(
                      binary_props / static_cast<std::uint64_t>(repeats)),
                  static_cast<unsigned long long>(
                      relocations / static_cast<std::uint64_t>(repeats)),
                  static_cast<unsigned long long>(watch_bytes));
    out += line;
    out += '\n';
    std::printf("json %-24s %9.1f ms  %6.2f Mprops/s (portfolio real time)\n",
                race.name, mean_seconds * 1e3, pps / 1e6);
  }

  // Measured CNF-preprocessor on/off comparison, always emitted regardless
  // of --simplify: per family, the sequential wall time without the
  // preprocessor vs with it (simplify time included), plus what it removed.
  // Both arms must agree on every verdict.
  out += "  ],\n  \"simplify\": [\n";
  {
    struct SimplifyFamily {
      const char* name;
      std::vector<cnf::Cnf> instances;
    };
    SimplifyFamily sfams[] = {{"adder_miter", {}}, {"random3sat", {}}};
    for (int w : {16, 32, 48}) sfams[0].instances.push_back(adder_miter_cnf(w));
    for (int s = 0; s < 8; ++s)
      sfams[1].instances.push_back(random_3sat(170, 4.26, 1000 + s));
    bool sfirst = true;
    for (SimplifyFamily& fam : sfams) {
      double off_seconds = 0.0, on_seconds = 0.0;
      std::uint64_t vars_before = 0, vars_after = 0;
      std::uint64_t clauses_before = 0, clauses_after = 0;
      std::uint64_t fixed = 0, equivalent = 0, eliminated = 0, removed = 0;
      bool agree = true;
      for (int rep = 0; rep < repeats; ++rep) {
        vars_before = vars_after = clauses_before = clauses_after = 0;
        fixed = equivalent = eliminated = removed = 0;
        const sat::SolverConfig cfg = preset(0);
        for (const cnf::Cnf& f : fam.instances) {
          Stopwatch off_watch;
          const auto off = sat::solve_cnf(f, cfg);
          off_seconds += off_watch.seconds();
          Stopwatch on_watch;
          const auto pre = cnf::simplify(f);
          const sat::Status on_status =
              pre.unsat ? sat::Status::kUnsat
                        : sat::solve_cnf(pre.cnf, cfg).status;
          on_seconds += on_watch.seconds();
          agree &= on_status == off.status;
          vars_before += f.num_vars();
          vars_after += pre.cnf.num_vars();
          clauses_before += f.num_clauses();
          clauses_after += pre.cnf.num_clauses();
          fixed += pre.stats.fixed_units + pre.stats.pure_literals +
                   pre.stats.failed_literals;
          equivalent += pre.stats.equivalent_literals;
          eliminated += pre.stats.eliminated_vars;
          removed += pre.stats.removed_clauses;
        }
      }
      char line[512];
      std::snprintf(
          line, sizeof(line),
          "    %s{\"family\": \"%s\", \"off_ms\": %.3f, \"on_ms\": %.3f, "
          "\"vars_before\": %llu, \"vars_after\": %llu, "
          "\"clauses_before\": %llu, \"clauses_after\": %llu, "
          "\"fixed_literals\": %llu, \"equivalent_literals\": %llu, "
          "\"eliminated_vars\": %llu, \"removed_clauses\": %llu, "
          "\"verdicts_agree\": %s}",
          sfirst ? "" : ",", fam.name, off_seconds / repeats * 1e3,
          on_seconds / repeats * 1e3,
          static_cast<unsigned long long>(vars_before),
          static_cast<unsigned long long>(vars_after),
          static_cast<unsigned long long>(clauses_before),
          static_cast<unsigned long long>(clauses_after),
          static_cast<unsigned long long>(fixed),
          static_cast<unsigned long long>(equivalent),
          static_cast<unsigned long long>(eliminated),
          static_cast<unsigned long long>(removed),
          agree ? "true" : "false");
      out += line;
      out += '\n';
      sfirst = false;
      std::printf("json simplify %-12s off %8.1f ms  on %8.1f ms  "
                  "%llu -> %llu clauses%s\n",
                  fam.name, off_seconds / repeats * 1e3,
                  on_seconds / repeats * 1e3,
                  static_cast<unsigned long long>(clauses_before),
                  static_cast<unsigned long long>(clauses_after),
                  agree ? "" : "  VERDICT MISMATCH");
    }
  }
  // Measured DRAT-emission on/off comparison, always emitted regardless of
  // --proof: sequential wall time with no tracer vs with a discarding text
  // tracer, on the UNSAT families (where a complete certificate is actually
  // produced), plus the proof's step counts. Both arms must stay UNSAT.
  out += "  ],\n  \"proof\": [\n";
  {
    struct ProofFamily {
      const char* name;
      std::vector<cnf::Cnf> instances;
    };
    ProofFamily pfams[] = {{"pigeonhole", {}}, {"adder_miter", {}}};
    pfams[0].instances.push_back(pigeonhole(7));
    pfams[0].instances.push_back(pigeonhole(8));
    for (int w : {16, 32}) pfams[1].instances.push_back(adder_miter_cnf(w));
    bool pfirst = true;
    for (ProofFamily& fam : pfams) {
      double off_seconds = 0.0, on_seconds = 0.0;
      std::uint64_t adds = 0, deletes = 0;
      bool all_unsat = true;
      for (int rep = 0; rep < repeats; ++rep) {
        adds = deletes = 0;
        const sat::SolverConfig cfg = preset(0);
        for (const cnf::Cnf& f : fam.instances) {
          Stopwatch off_watch;
          const auto off = solve_traced(f, cfg, nullptr);
          off_seconds += off_watch.seconds();
          DiscardDrat sink;
          Stopwatch on_watch;
          const auto on = solve_traced(f, cfg, &sink);
          on_seconds += on_watch.seconds();
          adds += sink.adds();
          deletes += sink.deletes();
          all_unsat &= off.status == sat::Status::kUnsat &&
                       on.status == sat::Status::kUnsat;
        }
      }
      const double off_ms = off_seconds / repeats * 1e3;
      const double on_ms = on_seconds / repeats * 1e3;
      const double overhead_pct =
          off_ms > 0.0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
      char line[384];
      std::snprintf(line, sizeof(line),
                    "    %s{\"family\": \"%s\", \"off_ms\": %.3f, "
                    "\"on_ms\": %.3f, \"overhead_pct\": %.1f, "
                    "\"proof_adds\": %llu, \"proof_deletes\": %llu, "
                    "\"all_unsat\": %s}",
                    pfirst ? "" : ",", fam.name, off_ms, on_ms, overhead_pct,
                    static_cast<unsigned long long>(adds),
                    static_cast<unsigned long long>(deletes),
                    all_unsat ? "true" : "false");
      out += line;
      out += '\n';
      pfirst = false;
      std::printf("json proof %-12s off %8.1f ms  on %8.1f ms  (%+.1f%%)  "
                  "%llu adds%s\n",
                  fam.name, off_ms, on_ms, overhead_pct,
                  static_cast<unsigned long long>(adds),
                  all_unsat ? "" : "  VERDICT MISMATCH");
    }
  }
  // Measured circuit-vs-CNF backend comparison (PR 9), always emitted: the
  // circuit-native solver works on the AIG (adder miters directly; the
  // pigeonhole CNF bridged through cnf::cnf_to_aig), the CNF arm solves the
  // Tseitin encoding / raw formula with preset 0. Gate-domain counters sit
  // next to the CNF arm's numbers; both arms must agree on every verdict.
  out += "  ],\n  \"circuit\": [\n";
  {
    struct CircuitFamily {
      const char* name;
      std::vector<aig::Aig> circuits;  ///< circuit arm input
      std::vector<cnf::Cnf> formulas;  ///< CNF arm input, index-aligned
    };
    CircuitFamily cfams[] = {{"adder_miter", {}, {}}, {"pigeonhole", {}, {}}};
    for (int w : {8, 16}) {
      cfams[0].circuits.push_back(gen::make_adder_miter(w));
      cfams[0].formulas.push_back(
          cnf::tseitin_encode(cfams[0].circuits.back()).cnf);
    }
    for (int h : {6, 7}) {
      cfams[1].formulas.push_back(pigeonhole(h));
      cfams[1].circuits.push_back(cnf::cnf_to_aig(cfams[1].formulas.back()));
    }
    const sat::SolverConfig cnf_cfg = preset(0);
    const sat::CircuitSolverConfig circ_cfg =
        sat::CircuitSolverConfig::from_cnf(cnf_cfg);
    bool cfirst = true;
    for (CircuitFamily& fam : cfams) {
      double circ_seconds = 0.0, cnf_seconds = 0.0;
      sat::CircuitStats cstats;
      std::uint64_t cnf_conflicts = 0, cnf_props = 0;
      bool agree = true;
      for (int rep = 0; rep < repeats; ++rep) {
        cstats = {};
        cnf_conflicts = cnf_props = 0;
        for (std::size_t i = 0; i < fam.circuits.size(); ++i) {
          Stopwatch circ_watch;
          const auto circ = sat::solve_circuit(fam.circuits[i], circ_cfg);
          circ_seconds += circ_watch.seconds();
          Stopwatch cnf_watch;
          const auto r = sat::solve_cnf(fam.formulas[i], cnf_cfg);
          cnf_seconds += cnf_watch.seconds();
          agree &= circ.status == r.status;
          cstats.decisions += circ.stats.decisions;
          cstats.justification_decisions += circ.stats.justification_decisions;
          cstats.conflicts += circ.stats.conflicts;
          cstats.propagations += circ.stats.propagations;
          cstats.gate_propagations += circ.stats.gate_propagations;
          cstats.max_frontier =
              std::max(cstats.max_frontier, circ.stats.max_frontier);
          cnf_conflicts += r.stats.conflicts;
          cnf_props += r.stats.propagations;
        }
      }
      const double circ_ms = circ_seconds / repeats * 1e3;
      const double cnf_ms = cnf_seconds / repeats * 1e3;
      char line[640];
      std::snprintf(
          line, sizeof(line),
          "    %s{\"family\": \"%s\", \"circuit_ms\": %.3f, "
          "\"cnf_ms\": %.3f, \"gate_propagations\": %llu, "
          "\"circuit_propagations\": %llu, \"circuit_conflicts\": %llu, "
          "\"circuit_decisions\": %llu, \"justification_decisions\": %llu, "
          "\"max_frontier\": %llu, \"cnf_conflicts\": %llu, "
          "\"cnf_propagations\": %llu, \"verdicts_agree\": %s}",
          cfirst ? "" : ",", fam.name, circ_ms, cnf_ms,
          static_cast<unsigned long long>(cstats.gate_propagations),
          static_cast<unsigned long long>(cstats.propagations),
          static_cast<unsigned long long>(cstats.conflicts),
          static_cast<unsigned long long>(cstats.decisions),
          static_cast<unsigned long long>(cstats.justification_decisions),
          static_cast<unsigned long long>(cstats.max_frontier),
          static_cast<unsigned long long>(cnf_conflicts),
          static_cast<unsigned long long>(cnf_props),
          agree ? "true" : "false");
      out += line;
      out += '\n';
      cfirst = false;
      std::printf("json circuit %-12s circuit %8.1f ms  cnf %8.1f ms%s\n",
                  fam.name, circ_ms, cnf_ms,
                  agree ? "" : "  VERDICT MISMATCH");
    }
  }
  out += "  ]\n}\n";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  std::fputs(out.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return 0;
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

int main(int argc, char** argv) {
  bool smoke = false;
  bool smoke_circuit = false;
  const char* json_path = nullptr;
  int repeats = 3;
  std::vector<char*> passthrough{argv[0]};
  const auto parse_onoff = [](std::string_view v, bool& out) {
    if (v != "on" && v != "off") return false;
    out = v == "on";
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view a(argv[i]);
    bool bad = false;
    if (a == "--smoke") {
      smoke = true;
    } else if (a == "--smoke-circuit") {
      smoke_circuit = true;
    } else if (a.rfind("--json=", 0) == 0) {
      json_path = argv[i] + 7;
    } else if (a == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (a.rfind("--mean=", 0) == 0) {
      repeats = std::atoi(argv[i] + 7);
      bad = repeats < 1;
    } else if (a.rfind("--trail-reuse=", 0) == 0) {
      bad = !parse_onoff(a.substr(14), g_ablation.trail_reuse);
    } else if (a.rfind("--vivify=", 0) == 0) {
      bad = !parse_onoff(a.substr(9), g_ablation.vivify);
    } else if (a.rfind("--adaptive=", 0) == 0) {
      bad = !parse_onoff(a.substr(11), g_ablation.adaptive);
    } else if (a.rfind("--simplify=", 0) == 0) {
      bad = !parse_onoff(a.substr(11), g_ablation.simplify);
    } else if (a.rfind("--proof=", 0) == 0) {
      bad = !parse_onoff(a.substr(8), g_ablation.proof);
    } else if (a.rfind("--vivify-interval=", 0) == 0) {
      g_ablation.vivify_interval =
          static_cast<std::uint64_t>(std::atoll(argv[i] + 18));
    } else if (a.rfind("--vivify-effort=", 0) == 0) {
      g_ablation.vivify_effort =
          static_cast<std::uint32_t>(std::atoi(argv[i] + 16));
    } else {
      passthrough.push_back(argv[i]);
    }
    if (bad) {
      std::fprintf(stderr, "bad flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (smoke) return run_smoke();
  if (smoke_circuit) return run_smoke_circuit();
  if (json_path != nullptr) return run_json(json_path, repeats);
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
