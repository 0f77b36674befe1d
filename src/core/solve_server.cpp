#include "core/solve_server.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "aig/aiger_io.h"
#include "aig/structural_hash.h"
#include "cnf/cnf_to_aig.h"
#include "cnf/dimacs.h"
#include "cnf/tseitin.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "gen/miter.h"
#include "gen/pigeonhole.h"
#include "gen/random_circuit.h"
#include "gen/suite.h"
#include "sat/proof.h"

namespace csat::core {

namespace {

constexpr std::uint64_t kNoConflicts = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kNoDecisions = std::numeric_limits<std::uint64_t>::max();

// Cache-key domain separation: an AIG instance and a raw CNF instance hash
// in different key spaces even if the 64-bit fingerprints collide.
constexpr std::uint64_t kAigDomain = 0x6369726375697431ULL;  // "circuit1"
constexpr std::uint64_t kCnfDomain = 0x636e666d73657431ULL;  // "cnfmset1"

using csat::mix64;

const char* status_name(sat::Status s) {
  switch (s) {
    case sat::Status::kSat:
      return "SAT";
    case sat::Status::kUnsat:
      return "UNSAT";
    case sat::Status::kUnknown:
      return "UNKNOWN";
  }
  return "?";
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  out += buf;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc{} && p == end && !s.empty();
}

// from_chars, not stod: stod honors the process locale, so a client
// sending "0.5" to a server running under a comma-decimal locale (LC_ALL=
// de_DE and friends) would get a parse error — or silently accept "0,5".
// The wire format is locale-independent; the parser must be too.
bool parse_double(const std::string& s, double& out) {
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc{} && p == end && !s.empty();
}

/// Splits "name:arg1:arg2" on ':'.
std::vector<std::string> split_colon(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(':', start);
    parts.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) return parts;
    start = pos + 1;
  }
}

/// A materialized instance, ready to hash-check and solve.
struct BuiltInstance {
  /// enc.cnf is the formula the CNF backends solve: the Tseitin encoding of
  /// an AIG source, or a CNF source as parsed (node2var then stays empty).
  cnf::TseitinResult enc;
  std::uint64_t key = 0;  ///< domain-separated structural hash
  std::size_t witness_units = 0;  ///< PI count (circuit) / var count (CNF)
  /// The AIG the circuit backends solve: an AIG source as parsed, or
  /// cnf::cnf_to_aig of a CNF source. A CNF source builds it only when the
  /// request asked for a circuit backend, so CNF-only requests pay nothing.
  aig::Aig circuit;
  bool from_aig = false;

  /// Checks a SAT answer against the request's own instance before it is
  /// cached or returned. \p answer is a model of enc.cnf or, when
  /// \p pi_witness, a PI witness of `circuit`. Throws on failure: the
  /// worker's crash isolation answers worker_fault and nothing is cached.
  void check_sat(const std::vector<bool>& answer, bool pi_witness) const {
    bool ok = false;
    if (from_aig) {
      ok = witness_sets_some_po(
          circuit,
          pi_witness ? answer : cnf::witness_from_model(circuit, enc, answer));
    } else {
      // cnf_to_aig makes the variables PIs in order, so a circuit witness
      // of a CNF source is a model of its formula too.
      ok = answer.size() >= enc.cnf.num_vars() && enc.cnf.satisfied_by(answer);
    }
    if (!ok)
      throw std::runtime_error(
          "SAT answer fails the check against the request's instance");
  }
};

BuiltInstance build_from_aig(aig::Aig g) {
  BuiltInstance b;
  b.key = mix64(aig::structural_hash(g) ^ kAigDomain);
  b.enc = cnf::tseitin_encode(g);
  b.witness_units = g.num_pis();
  b.circuit = std::move(g);
  b.from_aig = true;
  return b;
}

BuiltInstance build_from_cnf(cnf::Cnf formula, bool want_circuit) {
  BuiltInstance b;
  b.key = mix64(cnf::structural_hash(formula) ^ kCnfDomain);
  b.witness_units = formula.num_vars();
  // Bridge: vars become PIs in order, so a circuit witness IS a CNF model.
  // The key stays the CNF-domain hash — the verdict is a property of the
  // formula, not of which backend answered.
  if (want_circuit) b.circuit = cnf::cnf_to_aig(formula);
  b.enc.cnf = std::move(formula);
  return b;
}

/// Largest variable index an inline `cnf` payload may name. A hostile
/// literal like 2000000000 would otherwise make ensure_var() allocate
/// gigabytes of assignment state before the solver even starts.
constexpr int kMaxInlineVar = 10'000'000;

cnf::Cnf parse_inline_cnf(const std::string& payload) {
  cnf::Cnf f;
  std::istringstream in(payload);
  std::string tok;
  std::vector<cnf::Lit> clause;
  bool open = false;
  while (in >> tok) {
    int lit = 0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), lit);
    if (ec != std::errc{} || p != tok.data() + tok.size())
      throw std::runtime_error("inline cnf: not a literal: " + tok);
    // INT_MIN has no representable negation, so Lit::from_dimacs would hit
    // signed overflow before the range check below could reject it.
    if (lit == std::numeric_limits<int>::min() ||
        (lit < 0 ? -lit : lit) > kMaxInlineVar)
      throw std::runtime_error("inline cnf: literal out of range: " + tok);
    if (lit == 0) {
      f.add_clause(clause);
      clause.clear();
      open = false;
      continue;
    }
    const cnf::Lit l = cnf::Lit::from_dimacs(lit);
    f.ensure_var(l.var());
    clause.push_back(l);
    open = true;
  }
  if (open) throw std::runtime_error("inline cnf: clause missing terminating 0");
  return f;
}

aig::Aig build_family(const std::string& spec) {
  const auto parts = split_colon(spec);
  const std::string& name = parts[0];
  const auto arg = [&](std::size_t i, std::uint64_t fallback,
                       std::uint64_t lo, std::uint64_t hi) {
    if (i >= parts.size()) return fallback;
    std::uint64_t v = 0;
    if (!parse_u64(parts[i], v) || v < lo || v > hi)
      throw std::runtime_error("family " + name + ": bad argument " + parts[i]);
    return v;
  };
  if (name == "adder_miter") {
    if (parts.size() != 2) throw std::runtime_error("family adder_miter:<width>");
    return gen::make_adder_miter(static_cast<int>(arg(1, 0, 1, 64)));
  }
  if (name == "random") {
    if (parts.size() < 2 || parts.size() > 4)
      throw std::runtime_error("family random:<pis>[:<gates>[:<seed>]]");
    gen::RandomAigParams p;
    p.num_pis = static_cast<int>(arg(1, 8, 2, 4096));
    p.num_gates = static_cast<int>(arg(2, 100, 1, 1u << 20));
    return gen::random_aig(p, arg(3, 1, 0, kNoConflicts));
  }
  if (name == "php") {
    // Pigeonhole principle PHP(holes+1, holes), bridged to an AIG so every
    // backend can take it: UNSAT and resolution-hard, the canonical
    // stressor for deadline/overload testing — every other family here
    // solves in milliseconds at any size this protocol accepts.
    if (parts.size() != 2) throw std::runtime_error("family php:<holes>");
    const int holes = static_cast<int>(arg(1, 0, 1, 64));
    return cnf::cnf_to_aig(gen::pigeonhole(holes));
  }
  if (name == "suite") {
    if (parts.size() != 4)
      throw std::runtime_error("family suite:<count>:<seed>:<index>");
    gen::SuiteParams p;
    p.count = static_cast<int>(arg(1, 0, 1, 4096));
    p.seed = arg(2, 1, 0, kNoConflicts);
    const auto index = arg(3, 0, 0, static_cast<std::uint64_t>(p.count) - 1);
    // Only the requested instance is built; earlier indices are skipped by
    // replaying their RNG draws (suite:4096:s:4095 used to materialize all
    // 4096 circuits to serve one).
    return gen::make_suite_instance(p, static_cast<int>(index)).circuit;
  }
  throw std::runtime_error("unknown family: " + name);
}

/// Text DRAT writer that also counts the steps for the response's proof
/// block (the writer itself is deliberately count-free).
class CountingDratTracer final : public sat::ProofTracer {
 public:
  explicit CountingDratTracer(std::ostream& out) : writer_(out) {}
  void add(std::span<const cnf::Lit> lits) override {
    ++adds_;
    writer_.add(lits);
  }
  void remove(std::span<const cnf::Lit> lits) override {
    ++deletes_;
    writer_.remove(lits);
  }
  [[nodiscard]] std::uint64_t adds() const { return adds_; }
  [[nodiscard]] std::uint64_t deletes() const { return deletes_; }

 private:
  sat::TextDratWriter writer_;
  std::uint64_t adds_ = 0;
  std::uint64_t deletes_ = 0;
};

BuiltInstance build_instance(const ServerRequest& request) {
  const bool want_circuit = is_circuit_backend(request.backend);
  switch (request.instance) {
    case ServerRequest::Instance::kInlineCnf:
      return build_from_cnf(parse_inline_cnf(request.payload), want_circuit);
    case ServerRequest::Instance::kDimacsFile:
      return build_from_cnf(cnf::read_dimacs_file(request.payload),
                            want_circuit);
    case ServerRequest::Instance::kAigerFile:
      return build_from_aig(aig::read_aiger_file(request.payload));
    case ServerRequest::Instance::kFamily:
      return build_from_aig(build_family(request.payload));
  }
  throw std::runtime_error("unreachable instance kind");
}

}  // namespace

std::string ServerResponse::to_json() const {
  std::string out = "{\"id\":";
  append_json_string(out, id);
  // Overload responses are deliberately short: the request was shed at
  // admission, so there is no verdict, no stats, nothing but the backoff
  // hint — and they must stay cheap to produce under exactly the load that
  // triggers them.
  if (overloaded) {
    out += ",\"status\":\"OVERLOAD\",\"retry_after_ms\":" +
           std::to_string(retry_after_ms);
    out += '}';
    return out;
  }
  if (!error.empty()) {
    out += ",\"error\":";
    append_json_string(out, error);
    if (worker_fault) out += ",\"worker_fault\":true";
    out += '}';
    return out;
  }
  out += ",\"status\":\"";
  // A timed-out solve reports TIMEOUT instead of UNKNOWN: the stats below
  // are the partial effort spent before the deadline ran out.
  out += timed_out ? "TIMEOUT" : status_name(status);
  out += "\",\"cache\":\"";
  out += cache;
  out += "\",\"backend\":\"";
  switch (backend) {
    case SolveBackend::kSingle:
      out += "sequential";
      break;
    case SolveBackend::kPortfolio:
      out += "portfolio";
      break;
    case SolveBackend::kCircuit:
      out += "circuit";
      break;
    case SolveBackend::kCircuitRace:
      out += "circuit-race";
      break;
  }
  out += "\",\"seconds\":";
  append_double(out, seconds);
  if (degraded) out += ",\"degraded\":true";
  if (!reason.empty()) {
    out += ",\"reason\":";
    append_json_string(out, reason);
  }
  if (cache[0] == 'h') {
    out += ",\"cached_seconds\":";
    append_double(out, cached_seconds);
  }
  out += ",\"vars\":" + std::to_string(vars);
  out += ",\"clauses\":" + std::to_string(clauses);
  out += ",\"model_size\":" + std::to_string(model_size);
  out += ",\"conflicts\":" + std::to_string(stats.conflicts);
  out += ",\"decisions\":" + std::to_string(stats.decisions);
  out += ",\"propagations\":" + std::to_string(stats.propagations);
  out += ",\"restarts\":" + std::to_string(stats.restarts);
  // Propagation-engine counters (PR 8): binary-first BCP volume and the
  // watcher arena's relocation/footprint telemetry per served solve.
  out += ",\"binary_props\":" + std::to_string(stats.binary_props);
  out += ",\"watcher_relocations\":" + std::to_string(stats.watcher_relocations);
  out += ",\"watch_bytes\":" + std::to_string(stats.watch_bytes);
  // CNF preprocessing report (PR 6): what the backend actually solved.
  // "vars"/"clauses" above always describe the original formula (which is
  // also what the cache key hashes), so this block is pure diagnostics.
  if (simplify_enabled) {
    out += ",\"simplify\":{\"vars\":" + std::to_string(simplified_vars);
    out += ",\"clauses\":" + std::to_string(simplified_clauses);
    out += ",\"fixed_units\":" + std::to_string(simplify_stats.fixed_units);
    out += ",\"pure_literals\":" + std::to_string(simplify_stats.pure_literals);
    out += ",\"failed_literals\":" +
           std::to_string(simplify_stats.failed_literals);
    out += ",\"equivalent_literals\":" +
           std::to_string(simplify_stats.equivalent_literals);
    out += ",\"eliminated_vars\":" +
           std::to_string(simplify_stats.eliminated_vars);
    out += ",\"subsumed_clauses\":" +
           std::to_string(simplify_stats.subsumed_clauses);
    out += ",\"strengthened_clauses\":" +
           std::to_string(simplify_stats.strengthened_clauses);
    out += ",\"removed_clauses\":" +
           std::to_string(simplify_stats.removed_clauses);
    out += ",\"seconds\":";
    append_double(out, simplify_stats.seconds);
    out += '}';
  }
  // Circuit-native backend report (PR 9): search effort in the gate domain
  // (no Tseitin variables exist on that arm), plus the race winner.
  if (circuit_backend) {
    out += ",\"circuit\":{\"gate_propagations\":" +
           std::to_string(circuit_stats.gate_propagations);
    out += ",\"justification_decisions\":" +
           std::to_string(circuit_stats.justification_decisions);
    out += ",\"decisions\":" + std::to_string(circuit_stats.decisions);
    out += ",\"conflicts\":" + std::to_string(circuit_stats.conflicts);
    out += ",\"propagations\":" + std::to_string(circuit_stats.propagations);
    out += ",\"max_frontier\":" + std::to_string(circuit_stats.max_frontier);
    if (race_winner != nullptr) {
      out += ",\"winner\":\"";
      out += race_winner;
      out += '"';
    }
    out += '}';
  }
  // DRAT proof report (PR 7): where the derivation went and whether it is
  // a complete refutation (only UNSAT verdicts cap the file with the empty
  // clause; SAT/UNKNOWN leave a truncated trace behind).
  if (proof_requested) {
    out += ",\"proof\":{\"file\":";
    append_json_string(out, proof_path);
    out += ",\"adds\":" + std::to_string(proof_adds);
    out += ",\"deletes\":" + std::to_string(proof_deletes);
    out += ",\"complete\":";
    out += proof_complete ? "true" : "false";
    out += '}';
  }
  if (has_expect) {
    out += ",\"expect\":\"";
    out += expect_ok ? "ok" : "mismatch";
    out += '"';
  }
  out += '}';
  return out;
}

SolveServer::SolveServer(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cache_capacity) {
  if (options_.num_workers == 0) {
    options_.num_workers =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.default_portfolio_size == 0) options_.default_portfolio_size = 1;
}

SolveServer::~SolveServer() { stop(); }

void SolveServer::start() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  stopping_ = false;
  cancel_.store(false, std::memory_order_relaxed);
  workers_.reserve(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  running_ = true;
}

bool SolveServer::submit(ServerRequest request) {
  start();
  // Deadlines are measured from here: queue wait is part of the promise
  // made to the client, not free time.
  request.submitted_at = Clock::now();
  ServerResponse overload;
  bool shed = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto has_space = [&] {
      return stopping_ || queue_.size() < options_.queue_capacity;
    };
    if (!stopping_ && !has_space()) {
      if (options_.max_queue_wait_ms >= 0) {
        shed = !queue_pop_.wait_for(
            lock, std::chrono::milliseconds(options_.max_queue_wait_ms),
            has_space);
      } else {
        queue_pop_.wait(lock, has_space);  // legacy: block indefinitely
      }
    }
    if (stopping_) return false;
    if (request.id.empty()) {
      // Built char-by-char: assigning a string literal here trips a GCC 12
      // -Wrestrict false positive (PR105329) once inlined.
      request.id.assign(1, 'r');
      request.id += std::to_string(++next_id_);
    }
    if (shed) {
      overload.id = request.id;
      overload.backend = request.backend;
      overload.overloaded = true;
      // Backoff hint: roughly how long the current queue takes to drain at
      // the observed per-request pace, clamped to something a client can
      // actually sleep on.
      const std::size_t depth = queue_.size();
      double per_request = 0.1;
      {
        const std::lock_guard<std::mutex> clock(counters_mutex_);
        if (ema_request_seconds_ > 0.0) per_request = ema_request_seconds_;
      }
      const double est_ms = per_request * 1000.0 *
                            static_cast<double>(depth + 1) /
                            static_cast<double>(options_.num_workers);
      overload.retry_after_ms = static_cast<std::uint64_t>(
          std::clamp(est_ms, 1.0, 30000.0));
    } else {
      queue_.push_back(std::move(request));
    }
  }
  if (shed) {
    {
      const std::lock_guard<std::mutex> clock(counters_mutex_);
      ++counters_.overloads;
    }
    emit(overload);
    return false;
  }
  {
    const std::lock_guard<std::mutex> clock(counters_mutex_);
    ++counters_.received;
  }
  queue_push_.notify_one();
  return true;
}

void SolveServer::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] {
    return stopping_ || (queue_.empty() && active_ == 0);
  });
}

void SolveServer::stop() {
  std::vector<std::thread> workers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stopping_ = true;
    {
      // A parked duplicate tests cancel_ under in_flight_mutex_, so setting
      // it under that lock means the notify below cannot be lost.
      const std::lock_guard<std::mutex> flight(in_flight_mutex_);
      cancel_.store(true, std::memory_order_relaxed);
    }
    workers.swap(workers_);
    queue_push_.notify_all();
    queue_pop_.notify_all();
    idle_.notify_all();
  }
  in_flight_cv_.notify_all();  // release workers parked on a duplicate
  for (std::thread& t : workers) t.join();
  const std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
  stopping_ = false;
  cancel_.store(false, std::memory_order_relaxed);
}

void SolveServer::release_leadership(std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(in_flight_mutex_);
  in_flight_.erase(key);
  in_flight_cv_.notify_all();
}

void SolveServer::worker_loop() {
  for (;;) {
    ServerRequest request;
    bool degrade = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_push_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      request = std::move(queue_.front());
      queue_.pop_front();
      // Degradation decision is made at dequeue time against live queue
      // depth: pressure when the request *starts*, not when it arrived.
      degrade = options_.degrade_watermark != 0 &&
                queue_.size() >= options_.degrade_watermark;
      ++active_;
      queue_pop_.notify_one();
    }

    const std::uint64_t deadline_ms = request.deadline_ms != 0
                                          ? request.deadline_ms
                                          : options_.default_deadline_ms;
    const Clock::time_point expiry =
        deadline_ms != 0
            ? request.submitted_at + std::chrono::milliseconds(deadline_ms)
            : Clock::time_point::max();

    ServerResponse response;
    if (cancel_.load(std::memory_order_relaxed)) {
      response.id = request.id;
      response.error = "server stopped before solving";
    } else if (Clock::now() >= expiry) {
      // Spent its whole deadline in the queue: answered without a build.
      response.id = request.id;
      response.backend = request.backend;
      response.timed_out = true;
    } else {
      // Crash isolation: a worker exception — injected fault, allocation
      // failure, solver defect — becomes an error response for THIS request
      // and the worker keeps serving. One request in, one response out,
      // even when the response is "I crashed".
      try {
        response = process(request, expiry, degrade);
      } catch (const std::exception& e) {
        response = ServerResponse{};
        response.id = request.id;
        response.backend = request.backend;
        response.error = std::string("worker fault: ") + e.what();
        response.worker_fault = true;
      } catch (...) {
        response = ServerResponse{};
        response.id = request.id;
        response.backend = request.backend;
        response.error = "worker fault: non-standard exception";
        response.worker_fault = true;
      }
    }

    // Timeout classification: only an inconclusive verdict becomes TIMEOUT.
    // A solve that reached a real answer (or a cache hit served after
    // expiry) still reports that answer.
    if (response.error.empty() && response.status == sat::Status::kUnknown &&
        Clock::now() >= expiry) {
      response.timed_out = true;
    }

    // expect= is evaluated here, after outcome classification, so it can
    // assert error and timeout shapes — not just verdicts.
    if (request.expect.has_value()) {
      response.has_expect = true;
      const Expectation e = *request.expect;
      if (!response.error.empty()) {
        response.expect_ok = e == Expectation::kError;
      } else if (response.timed_out) {
        response.expect_ok = e == Expectation::kTimeout;
      } else {
        switch (e) {
          case Expectation::kSat:
            response.expect_ok = response.status == sat::Status::kSat;
            break;
          case Expectation::kUnsat:
            response.expect_ok = response.status == sat::Status::kUnsat;
            break;
          case Expectation::kUnknown:
            response.expect_ok = response.status == sat::Status::kUnknown;
            break;
          case Expectation::kError:
          case Expectation::kTimeout:
            response.expect_ok = false;
            break;
        }
      }
    }

    {
      const std::lock_guard<std::mutex> clock(counters_mutex_);
      ++counters_.completed;
      constexpr double kAlpha = 0.2;
      ema_request_seconds_ =
          ema_request_seconds_ == 0.0
              ? response.seconds
              : (1.0 - kAlpha) * ema_request_seconds_ +
                    kAlpha * response.seconds;
      if (!response.error.empty()) {
        ++counters_.errors;
        if (response.worker_fault) ++counters_.worker_faults;
        if (!(request.expect.has_value() &&
              *request.expect == Expectation::kError))
          ++counters_.unexpected_errors;
      } else if (response.timed_out) {
        ++counters_.timeouts;
      } else {
        switch (response.status) {
          case sat::Status::kSat:
            ++counters_.sat;
            break;
          case sat::Status::kUnsat:
            ++counters_.unsat;
            break;
          case sat::Status::kUnknown:
            ++counters_.unknown;
            break;
        }
        if (response.reason == "memout") ++counters_.memouts;
      }
      if (response.degraded) ++counters_.degraded;
      if (response.has_expect && !response.expect_ok)
        ++counters_.expect_failures;
    }
    emit(response);

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

ServerResponse SolveServer::process(ServerRequest& request,
                                    Clock::time_point expiry, bool degrade) {
  ServerResponse response;
  response.id = request.id;
  // Graceful degradation ladder, applied before anything expensive: under
  // queue pressure a request keeps its verdict semantics but sheds cost —
  // no preprocessing, a conflict cap (merged into limits below), and a
  // portfolio collapsed to one sequential solver instead of N threads.
  if (degrade) {
    response.degraded = true;
    request.simplify = false;
    if (request.backend == SolveBackend::kPortfolio)
      request.backend = SolveBackend::kSingle;
  }
  response.backend = request.backend;
  Stopwatch watch;

  BuiltInstance built;
  try {
    fault::maybe_throw(fault::Point::kParseGarbage, "injected parse fault");
    built = build_instance(request);
  } catch (const std::exception& e) {
    response.error = e.what();
    response.seconds = watch.seconds();
    return response;
  }
  response.vars = built.enc.cnf.num_vars();
  response.clauses = built.enc.cnf.num_clauses();
  // Deliberately *outside* the try above: an injected worker fault must
  // exercise the worker_loop crash-isolation path, not the build error path.
  fault::maybe_throw(fault::Point::kWorkerThrow, "injected worker fault");

  const bool want_proof = !request.proof_file.empty();
  if (want_proof && request.backend != SolveBackend::kSingle) {
    response.error =
        "proof= requires backend=sequential: a portfolio race's winner "
        "depends on wall-clock timing and shared clauses, and the circuit "
        "backends derive learnt constraints from implicit gate clauses the "
        "checker never sees, so neither has a checkable DRAT derivation";
    response.seconds = watch.seconds();
    return response;
  }

  // Proof requests bypass the cache entirely: a cached verdict carries no
  // derivation, and publishing a proof-run verdict for cache consumers
  // would be fine but keeps the singleflight logic entangled with the
  // proof file's lifetime for no benefit.
  const bool caching =
      request.use_cache && options_.cache_capacity > 0 && !want_proof;
  response.cache = caching ? "miss" : "off";

  bool served_from_cache = false;
  // RAII leadership release: if anything below throws (injected fault,
  // allocation failure) between claiming singleflight leadership and the
  // normal publish point, parked duplicates would wait forever on a key
  // nobody is solving. The guard runs on every exit path, and runs *after*
  // the cache insert in the normal flow, preserving the cache-first,
  // erase-second publication order.
  struct LeaderGuard {
    SolveServer* server = nullptr;
    std::uint64_t key = 0;
    ~LeaderGuard() {
      if (server != nullptr) server->release_leadership(key);
    }
  } leader_guard;
  if (caching) {
    // Lookup and leadership claim are atomic (both under in_flight_mutex_;
    // leaders publish cache-first, erase-second), so a request can never
    // miss the cache *and* find no leader for a verdict that was just
    // published — every duplicate either hits or parks.
    std::unique_lock<std::mutex> lock(in_flight_mutex_);
    for (;;) {
      if (const auto hit = cache_.lookup(built.key)) {
        response.cache = "hit";
        response.status = hit->status;
        response.stats = hit->solver_stats;
        response.cached_seconds = hit->solve_seconds;
        response.model_size = hit->model_size;
        served_from_cache = true;
        break;
      }
      if (in_flight_.insert(built.key).second) {
        // We solve; duplicates park until our verdict lands.
        leader_guard.server = this;
        leader_guard.key = built.key;
        break;
      }
      // A structurally identical request is already being solved: park
      // until the leader publishes, then loop to serve the cache hit. If
      // the leader's verdict was kUnknown (budget ran out) the re-lookup
      // misses and this worker takes over with its own budget. Shutdown
      // and this request's own deadline also end the wait; both fall
      // through to a solve whose budget is already spent.
      const bool woken = in_flight_cv_.wait_until(lock, expiry, [&] {
        return cancel_.load(std::memory_order_relaxed) ||
               in_flight_.count(built.key) == 0;
      });
      if (!woken || cancel_.load(std::memory_order_relaxed)) break;
    }
  }

  if (!served_from_cache) {
    // Per-request budget fields override the server defaults; the server's
    // shutdown flag cancels in-flight solves at their next checkpoint.
    sat::Limits limits = options_.default_limits;
    if (request.limits.max_conflicts != kNoConflicts)
      limits.max_conflicts = request.limits.max_conflicts;
    if (request.limits.max_decisions != kNoDecisions)
      limits.max_decisions = request.limits.max_decisions;
    if (!std::isinf(request.limits.max_seconds))
      limits.max_seconds = request.limits.max_seconds;
    if (request.limits.hard_memory_bytes != 0)
      limits.hard_memory_bytes = request.limits.hard_memory_bytes;
    if (request.limits.soft_memory_bytes != 0)
      limits.soft_memory_bytes = request.limits.soft_memory_bytes;
    if (degrade)
      limits.max_conflicts =
          std::min(limits.max_conflicts, options_.degraded_max_conflicts);
    limits.terminate = &cancel_;

    fault::maybe_slow();
    fault::maybe_alloc_fail();

    std::ofstream proof_stream;
    std::optional<CountingDratTracer> proof;
    if (want_proof) {
      proof_stream.open(request.proof_file, std::ios::trunc);
      if (!proof_stream) {
        response.error =
            "proof=: cannot open file for writing: " + request.proof_file;
        response.seconds = watch.seconds();
        return response;
      }
      proof.emplace(proof_stream);
    }

    if (built.enc.trivially_unsat) {
      response.status = sat::Status::kUnsat;
      // The encoder materialized the contradiction as the units f and !f,
      // so the empty clause alone is RUP against the formula.
      if (proof.has_value()) proof->add(std::span<const cnf::Lit>{});
    } else if (built.enc.trivially_sat) {
      response.status = sat::Status::kSat;
      built.check_sat(std::vector<bool>(built.witness_units, false),
                      /*pi_witness=*/true);
    } else {
      // The shared solve stage (core/pipeline.h), configured from the
      // request and the server defaults. The cache key was computed from
      // the *original* formula above, so the cached verdict is identical
      // whether or not a request simplifies; the circuit backends never
      // touch the CNF and skip the preprocessor.
      PipelineOptions stage;
      stage.solver = options_.solver;
      stage.limits = limits;
      // The deadline is the solve's wall-clock budget: whatever is left of
      // it now, after the build, the cache and any park.
      if (expiry != Clock::time_point::max()) {
        const std::chrono::duration<double> left = expiry - Clock::now();
        stage.limits.max_seconds =
            std::min(limits.max_seconds, std::max(0.0, left.count()));
      }
      stage.backend = request.backend;
      stage.portfolio_size = request.portfolio_size != 0
                                 ? request.portfolio_size
                                 : options_.default_portfolio_size;
      stage.cnf_simplify = request.simplify.value_or(options_.default_simplify);
      stage.proof = proof.has_value() ? &*proof : nullptr;
      PipelineResult solved;
      const std::vector<bool> answer =
          solve_stage(&built.enc.cnf, &built.circuit, stage, solved);
      response.status = solved.status;
      response.stats = solved.solver_stats;
      response.simplify_enabled = solved.simplified;
      response.simplified_vars = solved.simplified_vars;
      response.simplified_clauses = solved.simplified_clauses;
      response.simplify_stats = solved.simplify_stats;
      const bool circuit_backend = is_circuit_backend(request.backend);
      if (circuit_backend) {
        response.circuit_backend = true;
        response.circuit_stats = solved.circuit_stats;
        if (request.backend == SolveBackend::kCircuitRace)
          response.race_winner =
              solved.portfolio_winner == 0   ? "circuit"
              : solved.portfolio_winner == 1 ? "cnf"
                                             : "none";
      }
      if (response.status == sat::Status::kSat)
        built.check_sat(answer, /*pi_witness=*/circuit_backend);
    }
    if (response.status == sat::Status::kSat)
      response.model_size = built.witness_units;

    if (want_proof) {
      response.proof_requested = true;
      response.proof_path = request.proof_file;
      response.proof_adds = proof->adds();
      response.proof_deletes = proof->deletes();
      response.proof_complete = response.status == sat::Status::kUnsat;
    }

    // Hard memory budget stops surface as a typed reason, not a generic
    // UNKNOWN: clients (and the bench harness) can tell "ran out of RAM
    // budget" from "ran out of conflicts".
    if (response.status == sat::Status::kUnknown &&
        (response.stats.memout_stops > 0 ||
         response.circuit_stats.memout_stops > 0))
      response.reason = "memout";

    // The cache itself rejects (and counts) kUnknown verdicts: an exhausted
    // budget is not a property of the instance.
    if (caching) {
      CachedVerdict verdict;
      verdict.status = response.status;
      verdict.solver_stats = response.stats;
      verdict.solve_seconds = watch.seconds();
      verdict.model_size = response.model_size;
      cache_.insert(built.key, verdict);
    }
    // Leadership (when held) is released by leader_guard's destructor —
    // after the cache insert above, so a parked duplicate's re-lookup is
    // guaranteed to find the fresh entry.
  }

  response.seconds = watch.seconds();
  return response;
}

void SolveServer::emit(const ServerResponse& response) {
  const std::lock_guard<std::mutex> lock(out_mutex_);
  if (out_ != nullptr) {
    *out_ << response.to_json() << '\n';
    out_->flush();  // a server must not sit on buffered responses
  }
  if (options_.on_response) options_.on_response(response);
}

void SolveServer::emit_stats_line() {
  const ServerCounters c = counters();
  const CacheCounters cc = cache_.counters();
  std::string line = "{\"stats\":{";
  line += "\"received\":" + std::to_string(c.received);
  line += ",\"completed\":" + std::to_string(c.completed);
  line += ",\"errors\":" + std::to_string(c.errors);
  line += ",\"expect_failures\":" + std::to_string(c.expect_failures);
  line += ",\"sat\":" + std::to_string(c.sat);
  line += ",\"unsat\":" + std::to_string(c.unsat);
  line += ",\"unknown\":" + std::to_string(c.unknown);
  line += ",\"timeouts\":" + std::to_string(c.timeouts);
  line += ",\"overloads\":" + std::to_string(c.overloads);
  line += ",\"degraded\":" + std::to_string(c.degraded);
  line += ",\"worker_faults\":" + std::to_string(c.worker_faults);
  line += ",\"memouts\":" + std::to_string(c.memouts);
  line += ",\"parse_errors\":" + std::to_string(c.parse_errors);
  line += ",\"unexpected_errors\":" + std::to_string(c.unexpected_errors);
  line += ",\"cache\":{";
  line += "\"hits\":" + std::to_string(cc.hits);
  line += ",\"misses\":" + std::to_string(cc.misses);
  line += ",\"insertions\":" + std::to_string(cc.insertions);
  line += ",\"evictions\":" + std::to_string(cc.evictions);
  line += ",\"size\":" + std::to_string(cc.size);
  line += ",\"capacity\":" + std::to_string(cc.capacity);
  line += "},\"workers\":" + std::to_string(options_.num_workers);
  line += "}}";
  const std::lock_guard<std::mutex> lock(out_mutex_);
  if (out_ != nullptr) {
    *out_ << line << '\n';
    out_->flush();
  }
}

ServerCounters SolveServer::counters() const {
  const std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

std::optional<ServerRequest> SolveServer::parse_request(
    const std::string& line, std::string& error) {
  ServerRequest request;
  std::istringstream in(line);
  std::string verb;
  in >> verb;
  if (verb != "solve") {
    error = "unknown verb: " + verb;
    return std::nullopt;
  }

  bool have_instance = false;
  const auto set_instance = [&](ServerRequest::Instance kind,
                                std::string payload) {
    if (have_instance) {
      error = "more than one instance spec in request";
      return false;
    }
    request.instance = kind;
    request.payload = std::move(payload);
    have_instance = true;
    return true;
  };

  std::string tok;
  while (in >> tok) {
    if (tok == "cnf") {
      // Inline DIMACS literal stream: consumes the rest of the line, so it
      // must be the last token group of the request.
      std::string rest;
      std::getline(in, rest);
      if (!set_instance(ServerRequest::Instance::kInlineCnf, rest))
        return std::nullopt;
      break;
    }
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      error = "malformed token (expected key=value): " + tok;
      return std::nullopt;
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    if (key == "id") {
      request.id = value;
    } else if (key == "backend") {
      if (value == "sequential") {
        request.backend = SolveBackend::kSingle;
      } else if (value == "portfolio") {
        request.backend = SolveBackend::kPortfolio;
      } else if (value == "circuit") {
        request.backend = SolveBackend::kCircuit;
      } else if (value == "circuit-race") {
        request.backend = SolveBackend::kCircuitRace;
      } else {
        error = "backend must be sequential, portfolio, circuit or "
                "circuit-race";
        return std::nullopt;
      }
    } else if (key == "portfolio") {
      std::uint64_t v = 0;
      if (!parse_u64(value, v) || v == 0 || v > 256) {
        error = "portfolio must be in [1, 256]";
        return std::nullopt;
      }
      request.portfolio_size = static_cast<std::size_t>(v);
    } else if (key == "max_seconds") {
      double v = 0.0;
      if (!parse_double(value, v) || !(v > 0.0)) {
        error = "max_seconds must be a positive number";
        return std::nullopt;
      }
      request.limits.max_seconds = v;
    } else if (key == "max_conflicts") {
      std::uint64_t v = 0;
      if (!parse_u64(value, v)) {
        error = "max_conflicts must be a non-negative integer";
        return std::nullopt;
      }
      request.limits.max_conflicts = v;
    } else if (key == "max_decisions") {
      std::uint64_t v = 0;
      if (!parse_u64(value, v)) {
        error = "max_decisions must be a non-negative integer";
        return std::nullopt;
      }
      request.limits.max_decisions = v;
    } else if (key == "deadline_ms") {
      std::uint64_t v = 0;
      if (!parse_u64(value, v) || v == 0 || v > 86'400'000) {
        error = "deadline_ms must be in [1, 86400000]";
        return std::nullopt;
      }
      request.deadline_ms = v;
    } else if (key == "max_memory_mb") {
      std::uint64_t v = 0;
      if (!parse_u64(value, v) || v == 0 || v > (1ull << 20)) {
        error = "max_memory_mb must be in [1, 1048576]";
        return std::nullopt;
      }
      // The hard cap is the stated budget; the soft cap (forced clause-DB
      // reduction) kicks in at 7/8 of it so the solver tries to shed learnt
      // clauses before giving up with reason=memout.
      request.limits.hard_memory_bytes = v << 20;
      request.limits.soft_memory_bytes =
          request.limits.hard_memory_bytes -
          request.limits.hard_memory_bytes / 8;
    } else if (key == "cache") {
      if (value != "on" && value != "off") {
        error = "cache must be on or off";
        return std::nullopt;
      }
      request.use_cache = value == "on";
    } else if (key == "simplify") {
      if (value != "on" && value != "off") {
        error = "simplify must be on or off";
        return std::nullopt;
      }
      request.simplify = value == "on";
    } else if (key == "proof") {
      if (value.empty()) {
        error = "proof= needs a file path";
        return std::nullopt;
      }
      request.proof_file = value;
    } else if (key == "expect") {
      if (value == "sat") {
        request.expect = Expectation::kSat;
      } else if (value == "unsat") {
        request.expect = Expectation::kUnsat;
      } else if (value == "unknown") {
        request.expect = Expectation::kUnknown;
      } else if (value == "error") {
        request.expect = Expectation::kError;
      } else if (value == "timeout") {
        request.expect = Expectation::kTimeout;
      } else {
        error = "expect must be sat, unsat, unknown, error or timeout";
        return std::nullopt;
      }
    } else if (key == "family") {
      if (!set_instance(ServerRequest::Instance::kFamily, value))
        return std::nullopt;
    } else if (key == "dimacs") {
      if (!set_instance(ServerRequest::Instance::kDimacsFile, value))
        return std::nullopt;
    } else if (key == "aiger") {
      if (!set_instance(ServerRequest::Instance::kAigerFile, value))
        return std::nullopt;
    } else {
      error = "unknown key: " + key;
      return std::nullopt;
    }
  }
  if (!have_instance) {
    error = "missing instance spec (family= | dimacs= | aiger= | cnf ...)";
    return std::nullopt;
  }
  return request;
}

void SolveServer::serve(std::istream& in, std::ostream& out) {
  {
    const std::lock_guard<std::mutex> lock(out_mutex_);
    out_ = &out;
  }
  start();
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::string trimmed = line.substr(first);
    if (trimmed == "quit" || trimmed == "exit") break;
    if (trimmed == "stats") {
      // Barrier semantics: a stats report covers every request submitted
      // before it, so transcripts are reproducible.
      drain();
      emit_stats_line();
      continue;
    }
    std::string error;
    auto request = parse_request(trimmed, error);
    if (!request.has_value()) {
      {
        const std::lock_guard<std::mutex> clock(counters_mutex_);
        ++counters_.errors;
        ++counters_.parse_errors;
      }
      ServerResponse response;
      response.id = "?";
      response.error = error;
      emit(response);
      continue;
    }
    submit(std::move(*request));
  }
  drain();
  {
    const std::lock_guard<std::mutex> lock(out_mutex_);
    out_ = nullptr;
  }
  stop();
}

}  // namespace csat::core
