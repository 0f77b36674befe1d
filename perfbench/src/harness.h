#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

// Shared plumbing for the workloads: run arguments, metric collection,
// order statistics, the in-memory span tracer, and the host probes
// (calibration loop, peak RSS).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for files a workload writes
};

struct Metric {
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  ///< observations behind the value
};

/// Everything one workload run measured, plus its correctness verdict.
/// Metric names follow the layer they describe (`sat.decisions`,
/// `server.queue_wait_ms.p99`, ...); BENCHMARK.json lists the ones that
/// reach the final JSON line.
struct RunResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;    ///< UNKNOWN, error, timeout or overload
  std::vector<std::string> errors;  ///< wrong verdicts and broken invariants
  std::uint64_t counts_digest = 0;  ///< hash of every deterministic count
  std::vector<std::string> notes;   ///< extra report lines (per-pass totals)
  /// Per-layer metrics of a layer the workload runs but cannot observe from
  /// outside. The table prints them as "not measured"; the JSON line, which
  /// must carry a number for every metric, carries 0.
  std::vector<std::string> unmeasured;

  void set(const std::string& name, const char* unit, double value,
           std::size_t samples = 1) {
    metrics[name] = Metric{unit, value, samples};
  }
  void error(std::string message) { errors.push_back(std::move(message)); }
};

/// Percentile by linear interpolation between closest ranks (q in [0,1]).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// FNV-style accumulation for the count digest.
inline void digest(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

/// splitmix64 — derives independent sub-seeds from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Median wall time, in ms, of a fixed integer loop in this file. It does
/// not touch the library, so a change to the program cannot move it; a
/// shift in it between runs is the host's drift.
[[nodiscard]] double host_calibration_ms();

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// In-memory span recorder for traced runs. Spans nest by call order on
/// one thread (begin/end), or are added whole with explicit timestamps
/// (server requests, whose ends are observed on worker threads and copied
/// out after the run). Nothing is written until write_jsonl().
class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint64_t id;  ///< instance index or request number
    int parent;        ///< index into spans(), -1 for a root
    double start;      ///< seconds since the tracer's epoch
    double end;
  };

  Tracer() : epoch_(Clock::now()) {}

  int begin(const char* name, std::uint64_t id);
  void end(int index);
  void add(const char* name, std::uint64_t id, Clock::time_point start,
           Clock::time_point end);

  /// Per span name: duration minus the part of it its direct children
  /// cover (children never overlap — they run on the parent's thread).
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t id)
      : tracer_(tracer), index_(tracer.begin(name, id)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Workload entry points (one translation unit each).
RunResult run_paper_suite(const Args& args);
RunResult run_circuit_cdcl(const Args& args);
RunResult run_server_mix(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
