// perfbench: the repository's benchmark program.
//
//   perfbench --workload paper_suite|server_mix|circuit_cdcl --seed N
//             --seconds S --trace 0|1 --workdir DIR
//
// DIR (created if missing) receives the files a workload writes: the AIGER
// instances of server_mix and the span files of traced runs.
//
// Prints every metric the run measured as a table (name, value, unit,
// sample count), then, as the last line, one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 on a wrong verdict or a broken determinism/decomposition check,
// 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

using perfbench::Args;
using perfbench::RunResult;

struct MetricName {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
    {"solved_frac", "frac"},   {"slo_frac", "frac"},
    {"total_s", "s"},          {"latency_mean_ms", "ms"},
    {"latency_p99_ms", "ms"},  {"throughput_rps", "1/s"},
};

// A layer a workload does not exercise reports 0 (predicted flat there), as
// does a layer it runs but cannot observe (RunResult::unmeasured).
constexpr MetricName kPerLayer[] = {
    {"total_s.baseline", "s"},
    {"total_s.comp", "s"},
    {"total_s.ours", "s"},
    {"speedup.ours_vs_baseline", "ratio"},
    {"total_s.circuit", "s"},
    {"total_s.circuit_race", "s"},
    {"synth.seconds", "s"},
    {"synth.normalize.seconds", "s"},
    {"synth.rewrite.seconds", "s"},
    {"synth.refactor.seconds", "s"},
    {"synth.balance.seconds", "s"},
    {"synth.resub.seconds", "s"},
    {"synth.ops", "count"},
    {"synth.ands_removed", "count"},
    {"synth.noop_frac", "frac"},
    {"rl.state.seconds", "s"},
    {"rl.infer.seconds", "s"},
    {"rl.steps", "count"},
    {"lut.map.seconds", "s"},
    {"lut.luts", "count"},
    {"lut.branching", "count"},
    {"cnf.encode.seconds", "s"},
    {"cnf.vars", "count"},
    {"cnf.clauses", "count"},
    {"cnf.simplify.seconds", "s"},
    {"cnf.simplify.var_frac", "frac"},
    {"cnf.restore.seconds", "s"},
    {"sat.solve.seconds", "s"},
    {"sat.decisions", "count"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.props_per_s", "1/s"},
    {"circuit.solve.seconds", "s"},
    {"circuit.race.seconds", "s"},
    {"circuit.conflicts", "count"},
    {"circuit.gate_propagations", "count"},
    {"circuit.props_per_s", "1/s"},
    {"circuit.race.circuit_win_frac", "frac"},
    {"server.queue_wait_ms.p50", "ms"},
    {"server.queue_wait_ms.p99", "ms"},
    {"server.service_ms.p50", "ms"},
    {"server.service_ms.p99", "ms"},
    {"server.cache.hit_frac", "frac"},
    {"server.solves", "count"},
    {"server.solve.conflicts", "count"},
    {"verify.seconds", "s"},
    {"verify.witnesses", "count"},
    {"loadgen.late_ms.p99", "ms"},
    {"host.calib_ms", "ms"},
    {"trace.overhead_frac", "frac"},
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_workdir = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 120.0)
        return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
      have_workdir = !value.empty();
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_workdir;
}

void print_json(const RunResult& r, bool trace) {
  const bool correct = r.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  const auto emit = [&](const MetricName& m) {
    const auto it = r.metrics.find(m.name);
    const double value = it == r.metrics.end() ? 0.0 : it->second.value;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                m.name, value, m.unit);
    first = false;
  };
  if (trace) {
    for (const MetricName& m : kPerLayer) emit(m);
  } else {
    for (const MetricName& m : kEndToEnd) emit(m);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_suite|server_mix|circuit_cdcl "
                 "--seed N --seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  RunResult (*run)(const Args&) = nullptr;
  if (args.workload == "paper_suite") run = perfbench::run_paper_suite;
  if (args.workload == "server_mix") run = perfbench::run_server_mix;
  if (args.workload == "circuit_cdcl") run = perfbench::run_circuit_cdcl;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  RunResult result;
  try {
    const double calib_before = perfbench::host_calibration_ms();
    result = run(args);
    const double calib_after = perfbench::host_calibration_ms();
    result.set("host.calib_ms", "ms", (calib_before + calib_after) / 2.0, 14);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  result.set("peak_rss_mb", "MB", perfbench::peak_rss_mb(), 1);

  std::printf("workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const auto& [name, m] : result.metrics)
    std::printf("  %-32s %16.6f %-6s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  for (const std::string& name : result.unmeasured)
    std::printf("  %-32s %16s\n", name.c_str(), "not measured");
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  std::printf("counts digest %016llx\n",
              static_cast<unsigned long long>(result.counts_digest));
  for (const std::string& e : result.errors) std::printf("ERROR %s\n", e.c_str());
  for (const MetricName& m : kEndToEnd)
    if (!args.trace && result.metrics.count(m.name) == 0) {
      std::printf("ERROR end-to-end metric %s was not measured\n", m.name);
      result.error("missing metric");
    }
  print_json(result, args.trace);
  return result.errors.empty() ? 0 : 1;
}
