// Incremental solve server over stdin/stdout: reads the line protocol of
// docs/PROTOCOL.md, streams one JSON response line per request, and keeps a
// pool of persistent workers behind a structural result cache. Each solve
// runs through core::solve_stage, the solve stage of core::solve_instance,
// and every SAT answer is checked against the request's instance before it
// is cached or returned.
//
//   $ printf 'solve id=a expect=unsat family=adder_miter:6\nquit\n' |
//       ./solve_server --workers=2
//
// Requests may add `proof=PATH` to stream a text DRAT certificate of the
// encoded CNF to PATH while solving (complete exactly when the verdict is
// UNSAT). Proof requests require the sequential backend — combining
// proof= with backend=portfolio is an error response — and bypass the
// result cache in both directions, since a cache hit carries no
// derivation. The response then includes a "proof" block with the path
// and step counts; see docs/PROTOCOL.md.
//
//   Flags: --workers=N            worker pool size (0 = hardware)
//          --queue=N              bounded request-queue capacity
//          --cache=N              result-cache entries (0 disables)
//          --config=kissat|cadical  sequential/lead solver configuration
//          --max-seconds=F        default per-request budget
//          --portfolio=K          default portfolio size
//          --simplify=on|off      default CNF preprocessing (requests may
//                                 override with simplify=on|off)
//          --deadline-ms=N        default deadline for requests without
//                                 deadline_ms= (0 = none)
//          --queue-wait-ms=N      bounded admission wait before answering
//                                 OVERLOAD once the queue is full (0 =
//                                 at once, -1 = block indefinitely, the
//                                 default)
//          --degrade-watermark=N  serve degraded above this queue depth
//          --expect-cache-hits=N  exit 1 unless the cache hit >= N times
//          --expect-responses=N   exit 1 unless exactly N responses were
//                                 emitted (completed + parse errors +
//                                 overloads — the one-in-one-out invariant)
//          --expect-parse-errors=N  exit 1 unless exactly N stream lines
//                                 were malformed
//          --strict               exit 1 on any *unexpected* error response
//                                 (errors asserted with expect=error and
//                                 malformed lines counted by
//                                 --expect-parse-errors don't trip it)
//
// Exit status: 0 on success; 1 when any expect= self-check or --expect-*
// accounting check failed, or (--strict) when any request errored without
// expect=error asserting it; 2 on bad flags. A final stats summary goes to
// stderr so stdout stays pure protocol.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/solve_server.h"

using namespace csat;

int main(int argc, char** argv) {
  core::ServerOptions options;
  long expect_cache_hits = -1;
  long expect_responses = -1;
  long expect_parse_errors = -1;
  bool strict = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto int_flag = [&](const char* prefix, long min_value, long& out) {
      const std::string p = prefix;
      if (arg.rfind(p, 0) != 0) return false;
      const char* digits = arg.c_str() + p.size();
      char* end = nullptr;
      const long v = std::strtol(digits, &end, 10);
      if (end == digits || *end != '\0' || v < min_value) {
        std::fprintf(stderr, "%s wants an integer >= %ld\n", prefix, min_value);
        std::exit(2);
      }
      out = v;
      return true;
    };
    long v = 0;
    if (int_flag("--workers=", 0, v)) {
      options.num_workers = static_cast<std::size_t>(v);
    } else if (int_flag("--queue=", 1, v)) {
      options.queue_capacity = static_cast<std::size_t>(v);
    } else if (int_flag("--cache=", 0, v)) {
      options.cache_capacity = static_cast<std::size_t>(v);
    } else if (int_flag("--portfolio=", 1, v)) {
      options.default_portfolio_size = static_cast<std::size_t>(v);
    } else if (int_flag("--expect-cache-hits=", 0, v)) {
      expect_cache_hits = v;
    } else if (int_flag("--expect-responses=", 0, v)) {
      expect_responses = v;
    } else if (int_flag("--expect-parse-errors=", 0, v)) {
      expect_parse_errors = v;
    } else if (int_flag("--deadline-ms=", 0, v)) {
      options.default_deadline_ms = static_cast<std::uint64_t>(v);
    } else if (int_flag("--queue-wait-ms=", -1, v)) {
      options.max_queue_wait_ms = v;
    } else if (int_flag("--degrade-watermark=", 0, v)) {
      options.degrade_watermark = static_cast<std::size_t>(v);
    } else if (arg.rfind("--max-seconds=", 0) == 0) {
      const char* digits = arg.c_str() + 14;
      char* end = nullptr;
      const double s = std::strtod(digits, &end);
      if (end == digits || *end != '\0' || s <= 0.0) {
        std::fprintf(stderr, "--max-seconds wants a positive number\n");
        return 2;
      }
      options.default_limits.max_seconds = s;
    } else if (arg.rfind("--simplify=", 0) == 0) {
      const std::string v = arg.substr(11);
      if (v != "on" && v != "off") {
        std::fprintf(stderr, "--simplify must be on or off\n");
        return 2;
      }
      options.default_simplify = v == "on";
    } else if (arg.rfind("--config=", 0) == 0) {
      const std::string c = arg.substr(9);
      if (c == "kissat") {
        options.solver = sat::SolverConfig::kissat_like();
      } else if (c == "cadical") {
        options.solver = sat::SolverConfig::cadical_like();
      } else {
        std::fprintf(stderr, "--config must be kissat or cadical\n");
        return 2;
      }
    } else if (arg == "--strict") {
      strict = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  core::SolveServer server(options);
  server.serve(std::cin, std::cout);

  const core::ServerCounters c = server.counters();
  const core::CacheCounters cc = server.cache_counters();
  std::fprintf(stderr,
               "served %llu requests (%llu SAT, %llu UNSAT, %llu UNKNOWN, "
               "%llu errors); cache %llu hits / %llu misses / %llu evictions\n",
               static_cast<unsigned long long>(c.completed),
               static_cast<unsigned long long>(c.sat),
               static_cast<unsigned long long>(c.unsat),
               static_cast<unsigned long long>(c.unknown),
               static_cast<unsigned long long>(c.errors),
               static_cast<unsigned long long>(cc.hits),
               static_cast<unsigned long long>(cc.misses),
               static_cast<unsigned long long>(cc.evictions));
  std::fprintf(stderr,
               "robustness: %llu timeouts, %llu overloads, %llu degraded, "
               "%llu worker faults, %llu memouts, %llu parse errors, "
               "%llu unexpected errors\n",
               static_cast<unsigned long long>(c.timeouts),
               static_cast<unsigned long long>(c.overloads),
               static_cast<unsigned long long>(c.degraded),
               static_cast<unsigned long long>(c.worker_faults),
               static_cast<unsigned long long>(c.memouts),
               static_cast<unsigned long long>(c.parse_errors),
               static_cast<unsigned long long>(c.unexpected_errors));

  if (c.expect_failures != 0) {
    std::fprintf(stderr, "%llu expect= self-checks failed\n",
                 static_cast<unsigned long long>(c.expect_failures));
    return 1;
  }
  if (expect_cache_hits >= 0 &&
      cc.hits < static_cast<std::uint64_t>(expect_cache_hits)) {
    std::fprintf(stderr, "cache hits %llu < required %ld\n",
                 static_cast<unsigned long long>(cc.hits), expect_cache_hits);
    return 1;
  }
  // One response per stream line, even under faults, overload and
  // deadlines: the resilience smoke pins the exact count.
  const std::uint64_t responses = c.completed + c.parse_errors + c.overloads;
  if (expect_responses >= 0 &&
      responses != static_cast<std::uint64_t>(expect_responses)) {
    std::fprintf(stderr, "responses %llu != required %ld\n",
                 static_cast<unsigned long long>(responses), expect_responses);
    return 1;
  }
  if (expect_parse_errors >= 0 &&
      c.parse_errors != static_cast<std::uint64_t>(expect_parse_errors)) {
    std::fprintf(stderr, "parse errors %llu != required %ld\n",
                 static_cast<unsigned long long>(c.parse_errors),
                 expect_parse_errors);
    return 1;
  }
  // --strict gates on errors nobody asserted: expect=error responses and
  // (when --expect-parse-errors pinned them) malformed lines are fine.
  if (strict) {
    std::uint64_t gate = c.unexpected_errors;
    if (expect_parse_errors < 0) gate += c.parse_errors;
    if (gate != 0) return 1;
  }
  return 0;
}
