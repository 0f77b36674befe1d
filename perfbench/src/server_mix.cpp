// server_mix: an open loop into an in-process core::SolveServer.
//
// One generator thread (this one) submits requests at a fixed rate to a
// server with two workers and backend=single, so the run stays within four
// cores. Each request is timed from the moment it was due, so a stalled
// generator or a growing queue shows up in the latency; how late the
// generator ran is reported separately. The schedule is replayed in several
// rounds, each on a fresh server with an empty cache, and each request is
// timed as the fastest of its rounds: the host, not the program, makes the
// rounds differ. The traffic:
//
//   hot    a set of small instances asked again and again (cache hits)
//   dup    a cold instance asked twice at the same instant (singleflight)
//   cold   distinct ms-scale instances, family=suite:... and random:...
//   heavy  test-suite equivalence miters written as AIGER files in setup and
//          asked with cache=off, so the tail waits behind real solves
//
// The rate and the shares of the mix are assumed, not taken from a request
// log: no record of real traffic is in the repository. perfbench/README.md
// names the gated metrics each share drives.
//
// No synthesis runs here; the server path (build, hash, cache, queue,
// warm-reset solvers) is what this workload measures. Every verdict must
// equal the reference verdict computed, and witness-checked, in setup.

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "aig/aiger_io.h"
#include "arms.h"
#include "core/solve_server.h"
#include "gen/random_circuit.h"
#include "gen/suite.h"
#include "harness.h"

namespace perfbench {

using namespace csat;

namespace {

constexpr double kRatePerSecond = 100.0;
constexpr double kSloMs = 250.0;
constexpr std::size_t kWorkers = 2;
constexpr int kHotSetSize = 16;
/// Share of the non-heavy, non-duplicate slots that ask the hot set.
constexpr double kHotShare = 0.75;
constexpr int kSetupRepeats = 5;
/// The schedule runs this many times; each request is timed as the fastest
/// of its rounds.
constexpr std::size_t kRounds = 5;
/// family=suite:<count>:<seed>:<index> cold misses use this one suite. Some
/// instances of other default suites abort the process inside the
/// generator (a degenerate random circuit trips a CSAT_CHECK in
/// gen::inject_bug or the ATPG generator); all 4096 of this one build. The
/// workload seed picks the window of indices a run asks for.
constexpr int kSuiteCount = 4096;
constexpr std::uint64_t kSuiteSeed = 8;

struct Request {
  std::string line;     ///< protocol text, parsed in setup
  std::size_t instance; ///< index into Setup::reference
  std::size_t slot;     ///< position in the schedule; due = slot / rate
};

struct Setup {
  std::vector<Request> schedule;
  std::vector<sat::Status> reference;
  std::vector<std::string> files;  ///< AIGER files to delete afterwards
  double verify_seconds = 0.0;
  std::uint64_t verify_witnesses = 0;
  std::uint64_t digest = 0;
};

/// Solves \p g as the Baseline arm and checks the SAT witness on it.
sat::Status reference_verdict(const aig::Aig& g, bool must_be_unsat,
                              const std::string& name, Setup& s,
                              RunResult& result) {
  const core::PipelineResult r =
      core::solve_instance(g, arm_options(Arm::kBaseline, nullptr));
  if (r.status == sat::Status::kSat) {
    const auto t0 = Clock::now();
    const bool ok = witness_satisfies(g, r.witness);
    s.verify_seconds += seconds_between(t0, Clock::now());
    ++s.verify_witnesses;
    if (!ok || must_be_unsat)
      result.error("reference witness check failed for " + name);
  }
  if (r.status == sat::Status::kUnknown)
    result.error("reference solve ran out of budget on " + name);
  return r.status;
}

Setup build_setup(const Args& args, std::size_t requests, RunResult& result) {
  Setup s;
  Rng rng(mix_seed(args.seed, 0x5e7));
  const auto add_instance = [&](const aig::Aig& g, bool unsat,
                                const std::string& name) {
    s.reference.push_back(reference_verdict(g, unsat, name, s, result));
    digest(s.digest, static_cast<std::uint64_t>(s.reference.back()));
    return s.reference.size() - 1;
  };

  // Hot set: small random circuits.
  std::vector<std::pair<std::string, std::size_t>> hot;
  for (int h = 0; h < kHotSetSize; ++h) {
    gen::RandomAigParams p;
    p.num_pis = 12;
    p.num_gates = 60 + 4 * h;
    const std::uint64_t seed = mix_seed(args.seed, 100 + h);
    const std::string spec = "random:12:" + std::to_string(p.num_gates) + ":" +
                             std::to_string(seed % 1000000007ULL);
    hot.emplace_back("solve family=" + spec,
                     add_instance(gen::random_aig(p, seed % 1000000007ULL), false, spec));
  }

  // Heavy tail: the 64-bit adder and 5-bit multiplier equivalence miters of
  // the paper draw, as AIGER files. Two instances of similar cost keep the
  // 99th percentile inside one group of requests on every seed.
  std::vector<std::pair<std::string, std::size_t>> heavy;
  {
    std::vector<BenchInstance> pool;
    for (BenchInstance& b : paper_draw(args.seed))
      if (b.name.rfind("lec_add_w64_eq", 0) == 0 || b.name.rfind("lec_mul_w5_eq", 0) == 0)
        pool.push_back(std::move(b));
    for (const BenchInstance& b : pool) {
      const std::string path = args.workdir + "/" + b.name + ".aig";
      aig::write_aiger_file(b.circuit, path);
      s.files.push_back(path);
      heavy.emplace_back("solve aiger=" + path + " cache=off",
                         add_instance(b.circuit, b.must_be_unsat, b.name));
    }
  }

  // Cold instances are generated on demand, one per use.
  std::uint64_t suite_index = mix_seed(args.seed, 0xc01d) % kSuiteCount;
  const auto cold = [&]() -> std::pair<std::string, std::size_t> {
    if (rng.next_bool()) {
      gen::SuiteParams p;
      p.count = kSuiteCount;
      p.seed = kSuiteSeed;
      // The suite's 5-bit multiplier equivalence miters cost as much as a
      // heavy request (about 40 ms; the rest of the suite averages under
      // 2 ms) and make up half of its solve time, so how many fell in a
      // seed's window moved latency_mean_ms by 25% between seeds. The heavy
      // tail holds that class at fixed positions; cold misses skip it.
      int index = 0;
      gen::Instance inst;
      do {
        index = static_cast<int>(suite_index++ % kSuiteCount);
        inst = gen::make_suite_instance(p, index);
      } while (inst.name.rfind("lec_mul_w5_eq", 0) == 0);
      const std::string spec = "suite:" + std::to_string(kSuiteCount) + ":" +
                               std::to_string(kSuiteSeed) + ":" +
                               std::to_string(index);
      return {"solve family=" + spec, add_instance(inst.circuit, false, spec)};
    }
    gen::RandomAigParams p;
    p.num_pis = 16;
    p.num_gates = 150 + static_cast<int>(rng.next_below(100));
    const std::uint64_t seed = rng.next_u64() % 1000000007ULL;
    const std::string spec = "random:16:" + std::to_string(p.num_gates) + ":" +
                             std::to_string(seed);
    return {"solve family=" + spec, add_instance(gen::random_aig(p, seed), false, spec)};
  };

  // Fixed positions for the heavy tail (1 in 32) and duplicate pairs
  // (1 in 10) keep their share equal on every seed; the rest is random.
  std::size_t heavy_next = 0;
  std::size_t slot = 0;
  while (s.schedule.size() < requests) {
    if (slot % 32 == 7) {
      const auto& h = heavy[heavy_next++ % heavy.size()];
      s.schedule.push_back({h.first, h.second, slot});
    } else if (slot % 10 == 3) {
      const auto c = cold();
      s.schedule.push_back({c.first, c.second, slot});
      s.schedule.push_back({c.first, c.second, slot});
    } else if (rng.next_double() < kHotShare) {
      const auto& h = hot[rng.next_below(hot.size())];
      s.schedule.push_back({h.first, h.second, slot});
    } else {
      const auto c = cold();
      s.schedule.push_back({c.first, c.second, slot});
    }
    ++slot;
  }
  s.schedule.resize(requests);
  return s;
}

/// What the response callback records; written once by the worker that
/// answers, read after drain().
struct Observed {
  Clock::time_point submitted{};
  Clock::time_point answered{};
  bool answered_flag = false;
  bool ok = false;  ///< clean verdict (no error, timeout, overload)
  sat::Status status = sat::Status::kUnknown;
  bool hit = false;  ///< served from the cache (or a coalesced leader)
  double service_seconds = 0.0;
  std::uint64_t conflicts = 0, decisions = 0, propagations = 0;
  std::size_t vars = 0, clauses = 0, simplified_vars = 0;
  bool simplified = false;
  double simplify_seconds = 0.0;
};

struct LoopResult {
  std::vector<Observed> observed;
  std::vector<double> late_ms;
  Clock::time_point first_due{};
};

/// Runs the whole schedule on a fresh server. With a \p tracer, the response
/// callback records a span per request (due -> on_response) on the worker
/// that answers, so the traced round pays for the recording.
LoopResult run_loop(const Setup& setup, Tracer* tracer) {
  const std::size_t count = setup.schedule.size();
  LoopResult out;
  out.observed.resize(count);
  core::ServerOptions options;
  options.num_workers = kWorkers;
  options.cache_capacity = 1 << 14;
  options.default_limits.max_conflicts = kConflictBudget;
  Observed* observed = out.observed.data();
  std::mutex trace_mutex;  // guards *tracer
  options.on_response = [observed, tracer,
                         &trace_mutex](const core::ServerResponse& r) {
    const auto now = Clock::now();
    const std::size_t k = std::stoull(r.id);
    Observed& o = observed[k];
    if (tracer != nullptr) {
      const std::lock_guard<std::mutex> lock(trace_mutex);
      tracer->add("server.request", k, o.submitted, now);
    }
    o.answered = now;
    o.answered_flag = true;
    o.ok = r.error.empty() && !r.timed_out && !r.overloaded;
    o.status = r.status;
    o.hit = std::string(r.cache) == "hit";
    o.service_seconds = r.seconds;
    o.conflicts = r.stats.conflicts;
    o.decisions = r.stats.decisions;
    o.propagations = r.stats.propagations;
    o.vars = r.vars;
    o.clauses = r.clauses;
    o.simplified = r.simplify_enabled;
    o.simplified_vars = r.simplified_vars;
    o.simplify_seconds = r.simplify_stats.seconds;
  };
  core::SolveServer server(options);
  server.start();

  // Parse before the clock starts, so the loop only sleeps and submits.
  std::vector<core::ServerRequest> requests;
  requests.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    std::string error;
    auto req = core::SolveServer::parse_request(setup.schedule[k].line, error);
    if (!req.has_value()) throw std::runtime_error("bad request line: " + error);
    req->id = std::to_string(k);
    requests.push_back(std::move(*req));
  }

  out.first_due = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t k = 0; k < count; ++k) {
    const auto due =
        out.first_due +
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
            static_cast<double>(setup.schedule[k].slot) / kRatePerSecond));
    std::this_thread::sleep_until(due);
    const auto now = Clock::now();
    out.late_ms.push_back(1e3 * seconds_between(due, now));
    out.observed[k].submitted = due;  // latency counts from the due time
    (void)server.submit(std::move(requests[k]));
  }
  server.drain();
  server.stop();
  return out;
}

double latency_ms(const Observed& o) {
  return 1e3 * seconds_between(o.submitted, o.answered);
}

struct Tally {
  std::uint64_t requests = 0, definitive = 0, within_slo = 0;
};

/// Checks every response of one round against the reference verdicts.
void check_round(const Setup& setup, const LoopResult& loop, RunResult& result,
                 Tally& tally) {
  for (std::size_t k = 0; k < loop.observed.size(); ++k) {
    const Observed& o = loop.observed[k];
    ++result.attempted;
    ++tally.requests;
    if (!o.answered_flag) {
      ++result.failed;
      result.error("request " + std::to_string(k) + " got no response");
      continue;
    }
    if (!o.ok || o.status == sat::Status::kUnknown) {
      ++result.failed;
      continue;
    }
    if (o.status != setup.reference[setup.schedule[k].instance]) {
      result.error("wrong verdict for request " + std::to_string(k) + ": " +
                   setup.schedule[k].line);
      continue;
    }
    ++tally.definitive;
    if (latency_ms(o) <= kSloMs) ++tally.within_slo;
  }
}

/// Each request's latency and service time, in ms, as the fastest of its
/// rounds (0 for a request no round answered; check_round fails the run).
struct Best {
  std::vector<double> latency_ms, service_ms;
};

Best best_of(const std::vector<const LoopResult*>& rounds) {
  const std::size_t n = rounds.front()->observed.size();
  Best best{std::vector<double>(n, 0.0), std::vector<double>(n, 0.0)};
  for (std::size_t k = 0; k < n; ++k) {
    bool seen = false;
    for (const LoopResult* r : rounds) {
      const Observed& o = r->observed[k];
      if (!o.answered_flag) continue;
      const double lat = latency_ms(o), service = 1e3 * o.service_seconds;
      best.latency_ms[k] = seen ? std::min(best.latency_ms[k], lat) : lat;
      best.service_ms[k] = seen ? std::min(best.service_ms[k], service) : service;
      seen = true;
    }
  }
  return best;
}

void set_end_to_end(const std::vector<const LoopResult*>& rounds, const Tally& tally,
                    RunResult& result) {
  const Best best = best_of(rounds);
  const std::size_t n = best.latency_ms.size();
  double service_ms = 0.0, latency_sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    service_ms += best.service_ms[k];
    latency_sum += best.latency_ms[k];
  }
  std::vector<double> throughput;
  for (const LoopResult* r : rounds) {
    Clock::time_point last = r->first_due;
    for (const Observed& o : r->observed)
      if (o.answered_flag) last = std::max(last, o.answered);
    throughput.push_back(static_cast<double>(n) / seconds_between(r->first_due, last));
  }
  result.set("total_s", "s", service_ms / 1e3, rounds.size());
  result.set("latency_mean_ms", "ms", latency_sum / static_cast<double>(n), tally.requests);
  result.set("latency_p50_ms", "ms", quantile(best.latency_ms, 0.5), tally.requests);
  result.set("latency_p99_ms", "ms", quantile(best.latency_ms, 0.99), tally.requests);
  result.set("throughput_rps", "1/s", median(throughput), rounds.size());
  const auto requests = static_cast<double>(tally.requests);
  result.set("solved_frac", "frac", static_cast<double>(tally.definitive) / requests,
             tally.requests);
  result.set("slo_frac", "frac", static_cast<double>(tally.within_slo) / requests,
             tally.requests);
  result.set("slo_limit_ms", "ms", kSloMs, 1);
  result.set("offered_rps", "1/s", kRatePerSecond, 1);
}

/// What the server did for one round's clean responses.
struct RoundCounts {
  std::uint64_t hits = 0, solves = 0, conflicts = 0, decisions = 0, propagations = 0;
  std::uint64_t vars = 0, clauses = 0, simp_in = 0, simp_out = 0;
  double simplify_seconds = 0.0;
};

RoundCounts count_round(const LoopResult& loop) {
  RoundCounts c;
  for (const Observed& o : loop.observed) {
    if (!o.answered_flag || !o.ok) continue;
    if (o.hit) {
      ++c.hits;
      continue;
    }
    ++c.solves;
    c.conflicts += o.conflicts;
    c.decisions += o.decisions;
    c.propagations += o.propagations;
    c.vars += o.vars;
    c.clauses += o.clauses;
    if (o.simplified) {
      c.simp_in += o.vars;
      c.simp_out += o.simplified_vars;
      c.simplify_seconds += o.simplify_seconds;
    }
  }
  return c;
}

void set_layers(const LoopResult& loop, RunResult& result) {
  std::vector<double> queue_ms, service_ms;
  for (const Observed& o : loop.observed) {
    if (!o.answered_flag) continue;
    service_ms.push_back(1e3 * o.service_seconds);
    queue_ms.push_back(std::max(0.0, latency_ms(o) - 1e3 * o.service_seconds));
  }
  const RoundCounts c = count_round(loop);
  const std::size_t n = loop.observed.size();
  result.set("server.queue_wait_ms.p50", "ms", quantile(queue_ms, 0.5), queue_ms.size());
  result.set("server.queue_wait_ms.p99", "ms", quantile(queue_ms, 0.99), queue_ms.size());
  result.set("server.service_ms.p50", "ms", quantile(service_ms, 0.5), service_ms.size());
  result.set("server.service_ms.p99", "ms", quantile(service_ms, 0.99), service_ms.size());
  result.set("server.cache.hit_frac", "frac", static_cast<double>(c.hits) / n, n);
  result.set("server.solves", "count", static_cast<double>(c.solves), n);
  result.set("server.solve.conflicts", "count", static_cast<double>(c.conflicts), c.solves);
  result.set("sat.decisions", "count", static_cast<double>(c.decisions), c.solves);
  result.set("sat.conflicts", "count", static_cast<double>(c.conflicts), c.solves);
  result.set("sat.propagations", "count", static_cast<double>(c.propagations), c.solves);
  result.set("cnf.vars", "count", static_cast<double>(c.vars), c.solves);
  result.set("cnf.clauses", "count", static_cast<double>(c.clauses), c.solves);
  result.set("cnf.simplify.var_frac", "frac",
             c.simp_in == 0 ? 0.0 : static_cast<double>(c.simp_out) / c.simp_in, c.solves);
  result.set("cnf.simplify.seconds", "s", c.simplify_seconds, c.solves);
  // A response reports its whole service time and its simplify time; the
  // server does not split building, encoding and solving apart.
  result.unmeasured = {"cnf.encode.seconds", "sat.solve.seconds", "sat.props_per_s"};
  result.set("loadgen.late_ms.p99", "ms", quantile(loop.late_ms, 0.99),
             loop.late_ms.size());
}

}  // namespace

RunResult run_server_mix(const Args& args) {
  RunResult result;
  const auto requests = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.seconds * kRatePerSecond /
                                  static_cast<double>(kRounds)));
  std::vector<double> setup_seconds;
  Setup setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    Setup s = build_setup(args, requests, result);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
    if (rep > 0 && s.digest != setup.digest)
      result.error("setup is not deterministic: reference verdicts changed");
    setup = std::move(s);
  }
  result.set("setup_s", "s", median(setup_seconds), setup_seconds.size());
  result.set("verify.seconds", "s", setup.verify_seconds, 1);
  result.set("verify.witnesses", "count",
             static_cast<double>(setup.verify_witnesses), 1);

  // The same schedule kRounds times, each on a fresh server. With tracing
  // on, every second round records spans; untraced and traced rounds then
  // differ by the cost of tracing and by host noise only.
  std::vector<LoopResult> rounds;
  std::vector<const LoopResult*> untraced, traced;
  Tracer tracer;
  Tally tally;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const bool traced_round = args.trace && r % 2 == 1;
    rounds.push_back(run_loop(setup, traced_round ? &tracer : nullptr));
    check_round(setup, rounds.back(), result, tally);
  }
  for (std::size_t r = 0; r < kRounds; ++r)
    (args.trace && r % 2 == 1 ? traced : untraced).push_back(&rounds[r]);
  const RoundCounts first = count_round(rounds.front());
  digest(result.counts_digest, first.solves);
  digest(result.counts_digest, first.hits);
  digest(result.counts_digest, first.decisions);
  set_end_to_end(untraced, tally, result);
  if (args.trace) {
    set_layers(*traced.front(), result);
    (void)tracer.write_jsonl(args.workdir + "/spans-server_mix.jsonl");
    result.set("trace.overhead_frac", "frac",
               median(best_of(traced).latency_ms) / median(best_of(untraced).latency_ms) -
                   1.0,
               traced.size());
  }
  for (const std::string& f : setup.files) {
    std::error_code ec;
    std::filesystem::remove(f, ec);
  }
  return result;
}

}  // namespace perfbench
