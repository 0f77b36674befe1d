// Solve-server throughput harness: a cached, repeated-instance workload
// (N client rounds x U unique instances) served three ways —
//
//   1. one-shot core::run_batch (the pre-server path: every repeat re-solves),
//   2. the solve server with the result cache disabled (every repeat
//      re-solves through the same solve stage as run_batch),
//   3. the solve server with the structural cache on (repeats are hits).
//
// The acceptance bar for the server tentpole is (3) >= 5x the throughput of
// (1) on the repeated workload; the (2) row is the server's cost without
// its cache: queueing, request building and per-request response work on
// top of the solves (1) also runs. All three run the same worker count.
//
// A fourth adversarial round then stress-tests the robustness layer: the
// same server under deliberate overload — deadline'd resolution-hard
// instances, bad requests, a tight admission queue, degradation watermarks,
// a hard memory cap and deterministic fault injection — reporting the
// timeout/overload/degraded/fault/memout counters and the core invariant
// (one response per request, nothing lost, nothing duplicated).
//
//   $ ./server_throughput [--unique=U] [--repeats=R] [--workers=W] [--seed=S]
//                         [--adversarial=N]

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "common/stopwatch.h"
#include "core/batch_runner.h"
#include "core/solve_server.h"
#include "gen/miter.h"
#include "gen/random_circuit.h"

using namespace csat;

namespace {

struct Workload {
  std::vector<std::string> specs;     // server-side family specs
  std::vector<aig::Aig> circuits;     // the same instances, pre-built
};

/// U unique instances: adder-equivalence miters (hard UNSAT backbone)
/// interleaved with random AIGs (cheap, SAT-leaning). The server receives
/// family specs and pays generation per request; run_batch gets the
/// pre-built circuits (a deliberate head start for the baseline).
Workload make_workload(int unique, std::uint64_t seed) {
  Workload w;
  for (int i = 0; i < unique; ++i) {
    if (i % 3 != 2) {
      // Miters carry the real solving load (UNSAT, hardness grows with
      // width); without them every request is trivial and fixed scheduling
      // overheads — not solving — would dominate all three rows.
      const int width = 6 + i;
      std::string spec("adder_miter:");
      spec += std::to_string(width);
      w.specs.push_back(std::move(spec));
      w.circuits.push_back(gen::make_adder_miter(width));
    } else {
      gen::RandomAigParams p;
      p.num_pis = 12;
      p.num_gates = 60 + 5 * i;
      const std::uint64_t s = seed + static_cast<std::uint64_t>(i);
      std::string spec("random:12:");
      spec += std::to_string(p.num_gates);
      spec += ':';
      spec += std::to_string(s);
      w.specs.push_back(std::move(spec));
      w.circuits.push_back(gen::random_aig(p, s));
    }
  }
  return w;
}

double run_server(const Workload& w, int repeats, std::size_t workers,
                  std::size_t cache_capacity, std::uint64_t* hits) {
  core::ServerOptions options;
  options.num_workers = workers;
  options.cache_capacity = cache_capacity;
  core::SolveServer server(options);
  Stopwatch watch;
  server.start();
  for (int r = 0; r < repeats; ++r) {
    for (const std::string& spec : w.specs) {
      core::ServerRequest req;
      req.instance = core::ServerRequest::Instance::kFamily;
      req.payload = spec;
      server.submit(std::move(req));
    }
  }
  server.drain();
  const double seconds = watch.seconds();
  *hits = server.cache_counters().hits;
  server.stop();
  return seconds;
}

/// Adversarial round: every request shape the robustness layer handles,
/// fired at a server with a deliberately tight admission queue while the
/// deterministic fault harness is live. Returns true when the
/// one-response-per-request invariant held.
bool run_adversarial(int rounds, std::size_t workers, std::uint64_t seed) {
  fault::Config inject;
  inject.enabled = true;
  inject.seed = seed;
  inject.rate_permille = 100;
  inject.mask = 0xFu;
  fault::configure(inject);

  const std::vector<std::string> patterns = {
      "solve family=php:12 simplify=off deadline_ms=150 expect=timeout",
      "solve family=adder_miter:8 cache=on",
      "solve family=php:11 backend=portfolio portfolio=2 simplify=off "
      "deadline_ms=150",
      "solve family=random:12:120:9 backend=circuit-race max_conflicts=2000",
      "solve family=nope expect=error",
      "solve family=php:14 max_memory_mb=1 simplify=off deadline_ms=30000",
  };

  core::ServerOptions options;
  options.num_workers = workers;
  options.queue_capacity = 4;
  options.shed_watermark = 4;
  options.max_queue_wait_ms = 5;
  options.degrade_watermark = 2;
  options.degraded_max_conflicts = 5000;
  options.cache_capacity = 128;
  std::atomic<std::uint64_t> responses{0};
  options.on_response = [&responses](const core::ServerResponse&) {
    responses.fetch_add(1, std::memory_order_relaxed);
  };
  core::SolveServer server(options);

  Stopwatch watch;
  std::uint64_t submitted = 0;
  for (int r = 0; r < rounds; ++r) {
    for (const std::string& line : patterns) {
      std::string error;
      auto request = core::SolveServer::parse_request(line, error);
      if (!request.has_value()) continue;  // patterns are all well-formed
      ++submitted;
      (void)server.submit(std::move(*request));  // false = shed, still answered
    }
  }
  server.drain();
  const double seconds = watch.seconds();
  const core::ServerCounters c = server.counters();
  server.stop();
  fault::configure(fault::Config{});

  std::printf(
      "adversarial round    %8.3fs  %9.1f req/s   (%llu requests)\n"
      "  outcomes: %llu timeouts, %llu overloads, %llu degraded, "
      "%llu worker faults, %llu memouts, %llu errors\n",
      seconds, static_cast<double>(submitted) / seconds,
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(c.timeouts),
      static_cast<unsigned long long>(c.overloads),
      static_cast<unsigned long long>(c.degraded),
      static_cast<unsigned long long>(c.worker_faults),
      static_cast<unsigned long long>(c.memouts),
      static_cast<unsigned long long>(c.errors));
  const std::uint64_t seen = responses.load(std::memory_order_relaxed);
  const bool ok = seen == submitted && c.completed + c.overloads == submitted;
  std::printf("  invariant: %llu/%llu responses — %s\n",
              static_cast<unsigned long long>(seen),
              static_cast<unsigned long long>(submitted),
              ok ? "OK (one response per request)" : "VIOLATED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const int unique = static_cast<int>(flags.get_int("unique", 12));
  const int repeats = static_cast<int>(flags.get_int("repeats", 8));
  const auto workers = static_cast<std::size_t>(flags.get_int("workers", 4));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const Workload w = make_workload(unique, seed);
  const std::size_t total = static_cast<std::size_t>(unique) *
                            static_cast<std::size_t>(repeats);

  std::printf("workload: %d unique instances x %d repeats = %zu requests, "
              "%zu workers\n\n",
              unique, repeats, total, workers);

  // 1. one-shot run_batch over the fully expanded instance list.
  std::vector<aig::Aig> expanded;
  expanded.reserve(total);
  for (int r = 0; r < repeats; ++r)
    for (const aig::Aig& g : w.circuits) expanded.push_back(g);
  core::BatchOptions batch;
  batch.pipeline.mode = core::PipelineMode::kBaseline;
  batch.num_workers = workers;
  Stopwatch watch;
  const auto ref = core::run_batch(expanded, batch);
  const double batch_seconds = watch.seconds();
  std::printf("one-shot run_batch   %8.3fs  %9.1f inst/s  (%zu SAT, %zu UNSAT)\n",
              batch_seconds, static_cast<double>(total) / batch_seconds,
              ref.num_sat, ref.num_unsat);

  // 2. server, cache off: every repeat re-solves.
  std::uint64_t hits = 0;
  const double nocache_seconds = run_server(w, repeats, workers, 0, &hits);
  std::printf("server (cache off)   %8.3fs  %9.1f inst/s\n", nocache_seconds,
              static_cast<double>(total) / nocache_seconds);

  // 3. server, cache on: repeats served from the structural cache.
  const double cached_seconds = run_server(w, repeats, workers, 1024, &hits);
  std::printf("server (cache on)    %8.3fs  %9.1f inst/s  (%llu/%zu cache hits)\n",
              cached_seconds, static_cast<double>(total) / cached_seconds,
              static_cast<unsigned long long>(hits), total);

  const double speedup = cached_seconds > 0.0 ? batch_seconds / cached_seconds : 0.0;
  std::printf("\ncached-workload speedup vs one-shot run_batch: %.2fx "
              "(acceptance target >= 5x)\n\n",
              speedup);

  // 4. adversarial round: overload + deadlines + memouts + injected faults.
  const int adversarial =
      static_cast<int>(flags.get_int("adversarial", 6));
  const bool invariant_ok = run_adversarial(adversarial, workers, seed);
  return invariant_ok ? 0 : 1;
}
