#ifndef CSAT_CORE_SOLVE_SERVER_H
#define CSAT_CORE_SOLVE_SERVER_H

/// \file solve_server.h
/// Incremental solve server: a long-lived worker pool that accepts streamed
/// solve requests.
///
/// The server keeps N persistent workers alive across requests, and every
/// request carries its own budget, backend and id. Every solve runs through
/// core::solve_stage, the same stage core::solve_instance uses, on a fresh
/// solver; a SAT answer is checked against the request's own instance
/// before it is cached or returned. In front of the pool sits a structural
/// result cache (core/result_cache.h) keyed by aig::structural_hash /
/// cnf::structural_hash: a re-submitted instance — even one rebuilt in a
/// different node or clause order — is answered without touching a solver.
///
/// Transport is deliberately stream-agnostic: serve(std::istream&,
/// std::ostream&) runs the line protocol over any pair of streams (stdin/
/// stdout in examples/solve_server.cpp today, a socket streambuf tomorrow),
/// and submit() + ServerOptions::on_response bypass text entirely for
/// in-process use (tests, benches). The request/response line protocol is
/// specified in docs/PROTOCOL.md.
///
/// Request lifecycle (one box per thread; see docs/ARCHITECTURE.md):
///
///   reader (serve)          bounded queue           worker pool (N)
///   ─ parse line ──▶ submit ─▶ [req req req] ─▶ pop ─▶ build instance
///                 ▲ blocks when full                 ─▶ hash → cache?
///                                                hit ─▶ respond (no solve)
///                                          in flight ─▶ park, serve leader's
///                                                       verdict (solve once)
///                                               miss ─▶ core::solve_stage
///                                                    ─▶ check SAT, fill cache
///                                                    ─▶ respond (JSON line)

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cnf/simplify.h"
#include "core/pipeline.h"
#include "core/result_cache.h"
#include "sat/solver.h"

namespace csat::core {

/// Verdict self-check for `expect=` (PR 10 widened this beyond SAT/UNSAT so
/// resilience transcripts can assert their own failure modes): kError
/// matches any error response, kTimeout matches a deadline-expired
/// response, and the status values match a clean verdict of that status.
enum class Expectation : std::uint8_t {
  kSat,
  kUnsat,
  kUnknown,
  kError,
  kTimeout,
};

/// One parsed solve request. Instance payloads are materialized (files
/// read, families generated, inline DIMACS parsed) by the worker that picks
/// the request up, so expensive construction parallelizes with solving.
struct ServerRequest {
  enum class Instance {
    kInlineCnf,   ///< payload = DIMACS literal stream ("1 -2 0 2 0")
    kDimacsFile,  ///< payload = path to a DIMACS CNF file
    kAigerFile,   ///< payload = path to an AIGER (aag/aig) circuit file
    kFamily,      ///< payload = generated-family spec ("adder_miter:8", ...)
  };

  std::string id;  ///< echoed verbatim in the response ("r<n>" when absent)
  Instance instance = Instance::kInlineCnf;
  std::string payload;
  SolveBackend backend = SolveBackend::kSingle;
  /// Portfolio worker count for backend == kPortfolio; 0 = server default.
  std::size_t portfolio_size = 0;
  /// Per-request budget (seconds are wall-clock). Fields left at their
  /// defaults inherit ServerOptions::default_limits; the server wires its
  /// shutdown flag into Limits::terminate.
  sat::Limits limits;
  /// Wall-clock deadline in milliseconds, measured from submission (queue
  /// wait counts — a deadline is a promise to the *client*, not to the
  /// solver). 0 inherits ServerOptions::default_deadline_ms. The time left
  /// when the solve starts caps its Limits::max_seconds, and an
  /// inconclusive verdict reached past the deadline is reported as
  /// status=TIMEOUT with whatever partial stats the solve gathered.
  std::uint64_t deadline_ms = 0;
  /// Stamped by submit(); the zero point of deadline_ms.
  std::chrono::steady_clock::time_point submitted_at{};
  bool use_cache = true;
  /// CNF preprocessing override for this request (`simplify=on|off`);
  /// unset inherits ServerOptions::default_simplify. Caching is unaffected
  /// either way: the cache key is the *original* formula's structural hash,
  /// computed before any simplification.
  std::optional<bool> simplify;
  /// Self-check: when set, the response's "expect" field reports whether
  /// the outcome matched, and the server counts mismatches. Evaluated after
  /// outcome classification, so expect=error and expect=timeout can assert
  /// the failure paths themselves.
  std::optional<Expectation> expect;
  /// DRAT proof output (`proof=PATH`): when non-empty, the solve streams a
  /// text DRAT derivation of the *original* formula to this file (simplify
  /// steps included; solver steps translated back through the simplifier's
  /// variable map). Requires backend == kSingle — a portfolio race has no
  /// single-solver derivation — and bypasses the result cache both ways: a
  /// cached verdict carries no proof, and a proof request's verdict is not
  /// inserted (its budget/answer are still per-request). The file is a
  /// complete refutation only when the verdict is UNSAT.
  std::string proof_file;
};

/// One response, produced exactly once per accepted request (and for every
/// rejected line when serving a stream). `seconds` is the wall-clock time
/// this request spent being processed by its worker — build, hash, any
/// wait for a coalesced in-flight leader, and solve — excluding time spent
/// queued; `cached_seconds` is the original solve's time when
/// cache == "hit".
struct ServerResponse {
  std::string id;
  std::string error;  ///< empty = success; else no verdict fields are valid
  sat::Status status = sat::Status::kUnknown;
  /// Robustness outcome classification (PR 10). Exactly one of these four
  /// shapes per response: overload (short JSON, no verdict fields), error
  /// (worker_fault marks crash-isolated worker exceptions), timeout
  /// (status=TIMEOUT, partial stats valid), or a clean verdict.
  bool timed_out = false;   ///< deadline expired; stats are partial effort
  bool overloaded = false;  ///< shed at admission; nothing was solved
  std::uint64_t retry_after_ms = 0;  ///< backoff hint on overload responses
  bool degraded = false;  ///< served under load-shedding's degraded ladder
  bool worker_fault = false;  ///< error came from an isolated worker crash
  std::string reason;  ///< "memout" when a hard memory budget stopped the solve
  const char* cache = "off";  ///< "hit" | "miss" | "off"
  SolveBackend backend = SolveBackend::kSingle;
  double seconds = 0.0;
  double cached_seconds = 0.0;
  sat::Stats stats;
  std::size_t vars = 0;
  std::size_t clauses = 0;
  /// Witness length for SAT verdicts (PI count for circuit instances,
  /// variable count for raw CNF); 0 otherwise.
  std::size_t model_size = 0;
  /// CNF preprocessing report for this solve (absent on cache hits and
  /// trivial verdicts): the backend actually solved simplified_vars /
  /// simplified_clauses; `vars`/`clauses` above always describe the
  /// original formula.
  bool simplify_enabled = false;
  std::size_t simplified_vars = 0;
  std::size_t simplified_clauses = 0;
  cnf::SimplifyStats simplify_stats;
  bool has_expect = false;
  bool expect_ok = true;
  /// Circuit-native backend report (backend=circuit | circuit-race):
  /// rendered as a "circuit" JSON block with gate propagations,
  /// justification decisions and frontier gauges. For circuit-race, `stats`
  /// above carries the CNF arm's counters and `race_winner` names the arm
  /// that produced the verdict ("circuit" | "cnf" | "none").
  bool circuit_backend = false;
  sat::CircuitStats circuit_stats;
  const char* race_winner = nullptr;  ///< non-null only for circuit-race
  /// Proof report (`proof=` requests only): where the DRAT stream went,
  /// how many add/delete lines were emitted, and whether it is a complete
  /// refutation (verdict was UNSAT; SAT/UNKNOWN leave a truncated trace).
  bool proof_requested = false;
  std::string proof_path;
  std::uint64_t proof_adds = 0;
  std::uint64_t proof_deletes = 0;
  bool proof_complete = false;

  /// Single-line JSON rendering (no trailing newline), the wire format of
  /// docs/PROTOCOL.md.
  [[nodiscard]] std::string to_json() const;
};

/// Server-wide monotonic counters; cache counters live in
/// SolveServer::cache_counters().
struct ServerCounters {
  std::uint64_t received = 0;   ///< solve requests accepted into the queue
  std::uint64_t completed = 0;  ///< responses emitted for accepted requests
  std::uint64_t errors = 0;     ///< build/parse failures (response had .error)
  std::uint64_t expect_failures = 0;
  std::uint64_t sat = 0;
  std::uint64_t unsat = 0;
  std::uint64_t unknown = 0;
  // Robustness counters (PR 10). Every stream line yields exactly one
  // response: completed + parse_errors + overloads == lines seen.
  std::uint64_t timeouts = 0;       ///< deadline-expired responses
  std::uint64_t overloads = 0;      ///< requests shed at admission
  std::uint64_t degraded = 0;       ///< responses served degraded
  std::uint64_t worker_faults = 0;  ///< worker exceptions isolated to errors
  std::uint64_t memouts = 0;        ///< hard memory budget stops
  std::uint64_t parse_errors = 0;   ///< malformed stream lines (subset of errors)
  /// Error responses that were not asserted with expect=error — the
  /// "something actually went wrong" number a strict harness gates on
  /// (parse_errors are excluded; they get their own expectation knob).
  std::uint64_t unexpected_errors = 0;
};

struct ServerOptions {
  /// Persistent solver workers; 0 = std::thread::hardware_concurrency().
  std::size_t num_workers = 0;
  /// Bounded request queue: submit() blocks once this many requests are
  /// waiting (back-pressure toward the stream reader) — unless admission
  /// control below turns the block into load-shedding.
  std::size_t queue_capacity = 256;
  /// Admission control: when >= 0 and the queue is full, submit() waits at
  /// most this long for space, then sheds with an overload response
  /// (status=OVERLOAD + retry_after_ms); 0 sheds at once. -1 = legacy
  /// behaviour: block indefinitely.
  std::int64_t max_queue_wait_ms = -1;
  /// Graceful degradation: when > 0 and a worker dequeues a request while
  /// at least this many others are still queued, the request is served
  /// degraded — simplify off, conflicts capped at degraded_max_conflicts,
  /// portfolio collapsed to sequential — and the response says so.
  std::size_t degrade_watermark = 0;
  std::uint64_t degraded_max_conflicts = 100000;
  /// Deadline applied to requests that don't carry deadline_ms=; 0 = none.
  std::uint64_t default_deadline_ms = 0;
  /// Result-cache entries; 0 disables caching entirely.
  std::size_t cache_capacity = 1024;
  /// Sequential-backend solver configuration, and the lead (index-0) config
  /// of portfolio races — mirrors PipelineOptions::solver.
  sat::SolverConfig solver = sat::SolverConfig::kissat_like();
  /// Budget applied where a request leaves Limits fields at their defaults.
  sat::Limits default_limits;
  std::size_t default_portfolio_size = 4;
  /// Run the CNF preprocessor (cnf/simplify.h) before solving requests
  /// that don't say `simplify=`; per-request overrides win.
  bool default_simplify = true;
  /// Optional in-process response sink, called once per response from the
  /// worker that produced it, serialized by an internal mutex (the callback
  /// may touch shared state). Runs in addition to any serve() stream.
  std::function<void(const ServerResponse&)> on_response;
};

/// The long-lived server. Thread model: start() spawns the worker pool and
/// no other thread; submit() may be called from any number of producer
/// threads; serve() is a convenience producer that parses a line stream.
/// stop() cancels in-flight solves via their Limits::terminate hook and
/// joins the pool — the object is restartable afterwards. Not copyable or
/// movable.
class SolveServer {
 public:
  explicit SolveServer(ServerOptions options = {});
  /// Stops the pool (cancelling in-flight work) if still running.
  ~SolveServer();

  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;

  /// Spawns the worker pool. Idempotent while running.
  void start();

  /// Enqueues a request, blocking while the queue is at capacity. Returns
  /// false (dropping the request) when the server is stopping. start() is
  /// called implicitly if needed.
  bool submit(ServerRequest request);

  /// Blocks until every submitted request has been responded to and all
  /// workers are idle. New submissions during a drain extend it.
  void drain();

  /// Drains nothing: sets the shutdown flag (cancelling in-flight solves at
  /// their next solver checkpoint), wakes all waiters and joins the pool.
  /// Pending queued requests are answered with an error. Call drain() first
  /// for a graceful shutdown.
  void stop();

  /// Runs the line protocol of docs/PROTOCOL.md: reads requests from \p in
  /// until `quit` or EOF, streams one JSON response line per request to
  /// \p out (completion order; request ids correlate), handles `stats` as a
  /// barrier (drains, then reports), then drains and stops the pool.
  void serve(std::istream& in, std::ostream& out);

  /// Parses one `solve ...` protocol line. Returns nullopt and sets
  /// \p error on malformed input. Pure function; exposed for tests.
  static std::optional<ServerRequest> parse_request(const std::string& line,
                                                    std::string& error);

  [[nodiscard]] ServerCounters counters() const;
  [[nodiscard]] CacheCounters cache_counters() const { return cache_.counters(); }
  [[nodiscard]] const ServerOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  void worker_loop();
  /// Builds, looks up and solves \p request. \p expiry is its deadline
  /// (Clock::time_point::max() when it has none): a parked duplicate stops
  /// waiting there, and a solve gets at most the time left until it.
  ServerResponse process(ServerRequest& request, Clock::time_point expiry,
                         bool degrade);
  void release_leadership(std::uint64_t key);
  void emit(const ServerResponse& response);
  void emit_stats_line();

  ServerOptions options_;
  ResultCache cache_;

  /// In-flight coalescing ("singleflight"): the cache keys currently being
  /// solved. A worker whose key is already here parks until the leader
  /// publishes its verdict, then serves the cache hit — concurrent
  /// structurally-identical requests solve once, not N times.
  std::mutex in_flight_mutex_;
  std::condition_variable in_flight_cv_;
  std::unordered_set<std::uint64_t> in_flight_;

  std::mutex mutex_;  ///< guards queue_, state below
  std::condition_variable queue_push_;   ///< signalled on enqueue
  std::condition_variable queue_pop_;    ///< signalled on dequeue (back-pressure)
  std::condition_variable idle_;         ///< signalled when a worker finishes
  std::deque<ServerRequest> queue_;
  std::size_t active_ = 0;  ///< requests currently being processed
  bool running_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
  /// Shutdown: every solve's Limits::terminate. Set under in_flight_mutex_
  /// as well, so a parked duplicate cannot miss it.
  std::atomic<bool> cancel_{false};

  mutable std::mutex counters_mutex_;
  ServerCounters counters_;
  std::uint64_t next_id_ = 0;  ///< for requests submitted without an id
  /// EMA of per-request worker seconds, feeding retry_after_ms estimates on
  /// overload responses. Guarded by counters_mutex_.
  double ema_request_seconds_ = 0.0;

  std::mutex out_mutex_;       ///< serializes stream writes + on_response
  std::ostream* out_ = nullptr;  ///< serve()'s stream; null outside serve()
};

}  // namespace csat::core

#endif  // CSAT_CORE_SOLVE_SERVER_H
