// Solve-server subsystem tests: structural hashing (the cache key), the
// LRU result cache, and the server itself — protocol handling, cache
// hit/miss/eviction behaviour, a differential check that cached verdicts
// always match fresh solves, and a parity check that a served solve makes
// the same search as core::solve_instance.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "aig/structural_hash.h"
#include "cnf/cnf.h"
#include "cnf/tseitin.h"
#include "core/pipeline.h"
#include "core/result_cache.h"
#include "core/solve_server.h"
#include "gen/miter.h"
#include "gen/pigeonhole.h"
#include "gen/suite.h"
#include "sat/solver.h"

namespace csat {
namespace {

using core::CachedVerdict;
using core::ResultCache;
using core::ServerRequest;
using core::ServerResponse;
using core::SolveServer;

// --- structural hashing ----------------------------------------------------

TEST(StructuralHash, AigInvariantUnderConstructionOrder) {
  // Same circuit, different fanin order at construction.
  aig::Aig a;
  {
    const auto x = a.add_pi();
    const auto y = a.add_pi();
    a.add_po(a.and2(!x, y));
  }
  aig::Aig b;
  {
    const auto x = b.add_pi();
    const auto y = b.add_pi();
    b.add_po(b.and2(y, !x));
  }
  EXPECT_EQ(aig::structural_hash(a), aig::structural_hash(b));
}

TEST(StructuralHash, AigPiRenamingChangesTheHash) {
  // AND(!x1, x2) vs AND(x1, !x2) differ only by swapping the PI roles.
  // PIs hash by index *on purpose*: a PI-permutation-invariant hash is a
  // Weisfeiler-Leman-style refinement coarser than circuit equivalence and
  // constructibly merges non-equisatisfiable circuits (see the
  // NonEquisatisfiableCrossedConesNeverCollide regression) — unacceptable
  // for a verdict cache. Renaming therefore costs a false miss, never a
  // wrong verdict.
  aig::Aig a;
  {
    const auto x1 = a.add_pi();
    const auto x2 = a.add_pi();
    a.add_po(a.and2(!x1, x2));
  }
  aig::Aig b;
  {
    const auto x1 = b.add_pi();
    const auto x2 = b.add_pi();
    b.add_po(b.and2(x1, !x2));
  }
  EXPECT_NE(aig::structural_hash(a), aig::structural_hash(b));
}

TEST(StructuralHash, NonEquisatisfiableCrossedConesNeverCollide) {
  // Regression for a soundness bug found in review: with PIs hashed only
  // by structural role (fanout degree), these two circuits — identical
  // skeleton s=AND(a,b), t=AND(c,d), m1=AND(s,e), m2=AND(t,f) with
  // straight tops AND(m1,!s)/AND(m2,!t) vs crossed tops
  // AND(m1,!t)/AND(m2,!s) — hashed identically, yet the straight one is
  // UNSAT (m1 implies s) and the crossed one is SAT. A cache keyed on that
  // hash served a wrong verdict deterministically.
  const auto build = [](bool crossed) {
    aig::Aig g;
    const auto a = g.add_pi(), b = g.add_pi(), c = g.add_pi();
    const auto d = g.add_pi(), e = g.add_pi(), f = g.add_pi();
    const auto s = g.and2(a, b);
    const auto t = g.and2(c, d);
    const auto m1 = g.and2(s, e);
    const auto m2 = g.and2(t, f);
    const auto top1 = g.and2(m1, crossed ? !t : !s);
    const auto top2 = g.and2(m2, crossed ? !s : !t);
    g.add_po(g.or2(top1, top2));
    return g;
  };
  const aig::Aig straight = build(false);
  const aig::Aig crossed = build(true);
  EXPECT_NE(aig::structural_hash(straight), aig::structural_hash(crossed));

  // End-to-end: submitting both through one caching server must yield the
  // true verdicts (UNSAT then SAT), not a wrong cache hit.
  const auto solve = [](const aig::Aig& g) {
    sat::Solver solver;
    solver.add_formula(cnf::tseitin_encode(g).cnf);
    return solver.solve();
  };
  EXPECT_EQ(solve(straight), sat::Status::kUnsat);
  EXPECT_EQ(solve(crossed), sat::Status::kSat);
}

TEST(StructuralHash, AigDistinguishesPolarityAndFunction) {
  aig::Aig a;
  {
    const auto x = a.add_pi();
    const auto y = a.add_pi();
    a.add_po(a.and2(x, y));
  }
  aig::Aig b;  // complemented fanin
  {
    const auto x = b.add_pi();
    const auto y = b.add_pi();
    b.add_po(b.and2(!x, !y));
  }
  aig::Aig c;  // different connective
  {
    const auto x = c.add_pi();
    const auto y = c.add_pi();
    c.add_po(c.or2(x, y));
  }
  EXPECT_NE(aig::structural_hash(a), aig::structural_hash(b));
  EXPECT_NE(aig::structural_hash(a), aig::structural_hash(c));
  EXPECT_NE(aig::structural_hash(b), aig::structural_hash(c));
}

TEST(StructuralHash, AigDistinguishesSharing) {
  // or(and(a,b), and(c,d)) vs or(and(a,b), and(b,c)): same node counts and
  // local shapes, but the second reuses input b in both ANDs. The indexed
  // PI leaves must separate them.
  aig::Aig g1;
  {
    const auto a = g1.add_pi(), b = g1.add_pi();
    const auto c = g1.add_pi(), d = g1.add_pi();
    g1.add_po(g1.or2(g1.and2(a, b), g1.and2(c, d)));
  }
  aig::Aig g2;
  {
    const auto a = g2.add_pi(), b = g2.add_pi();
    const auto c = g2.add_pi();
    (void)g2.add_pi();  // keep the PI count equal
    g2.add_po(g2.or2(g2.and2(a, b), g2.and2(b, c)));
  }
  EXPECT_NE(aig::structural_hash(g1), aig::structural_hash(g2));
}

TEST(StructuralHash, AigIgnoresDeadNodes) {
  aig::Aig a;
  const auto x = a.add_pi();
  const auto y = a.add_pi();
  a.add_po(a.and2(x, y));

  aig::Aig b;
  const auto p = b.add_pi();
  const auto q = b.add_pi();
  const auto po = b.and2(p, q);
  (void)b.and2(!p, q);  // dead: not in any PO cone
  b.add_po(po);
  EXPECT_EQ(aig::structural_hash(a), aig::structural_hash(b));
}

TEST(StructuralHash, AigMiterWidthsDiffer) {
  EXPECT_EQ(aig::structural_hash(gen::make_adder_miter(6)),
            aig::structural_hash(gen::make_adder_miter(6)));
  EXPECT_NE(aig::structural_hash(gen::make_adder_miter(6)),
            aig::structural_hash(gen::make_adder_miter(7)));
}

TEST(StructuralHash, CnfClauseAndLiteralOrderInvariant) {
  const auto lit = [](int d) { return cnf::Lit::from_dimacs(d); };
  cnf::Cnf f1;
  f1.add_vars(3);
  f1.add_clause({lit(1), lit(-2)});
  f1.add_clause({lit(2), lit(3)});
  f1.add_clause({lit(-1), lit(-3)});

  cnf::Cnf f2;  // clauses reordered, literals within clauses reordered
  f2.add_vars(3);
  f2.add_clause({lit(-3), lit(-1)});
  f2.add_clause({lit(-2), lit(1)});
  f2.add_clause({lit(3), lit(2)});
  EXPECT_EQ(cnf::structural_hash(f1), cnf::structural_hash(f2));

  cnf::Cnf f3 = f1;  // one extra clause
  f3.add_clause({lit(1), lit(2)});
  EXPECT_NE(cnf::structural_hash(f1), cnf::structural_hash(f3));

  cnf::Cnf f4;  // one literal flipped
  f4.add_vars(3);
  f4.add_clause({lit(-1), lit(-2)});
  f4.add_clause({lit(2), lit(3)});
  f4.add_clause({lit(-1), lit(-3)});
  EXPECT_NE(cnf::structural_hash(f1), cnf::structural_hash(f4));

  // Documented limitation: variable *renaming* changes the hash (renaming
  // invariance is the AIG hash's job).
  cnf::Cnf f5;
  f5.add_vars(3);
  f5.add_clause({lit(3), lit(-2)});
  f5.add_clause({lit(2), lit(1)});
  f5.add_clause({lit(-3), lit(-1)});
  EXPECT_NE(cnf::structural_hash(f1), cnf::structural_hash(f5));
}

TEST(StructuralHash, CnfDeterministicAcrossCopies) {
  const cnf::Cnf f = gen::pigeonhole(5);
  const cnf::Cnf g = f;
  EXPECT_EQ(cnf::structural_hash(f), cnf::structural_hash(g));
}

// --- result cache ----------------------------------------------------------

CachedVerdict verdict(sat::Status status, double seconds = 1.0) {
  CachedVerdict v;
  v.status = status;
  v.solve_seconds = seconds;
  return v;
}

TEST(ResultCache, HitMissAndCounters) {
  ResultCache cache(8);
  EXPECT_FALSE(cache.lookup(1).has_value());
  cache.insert(1, verdict(sat::Status::kSat));
  const auto hit = cache.lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->status, sat::Status::kSat);
  const auto c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.insertions, 1u);
  EXPECT_EQ(c.size, 1u);
}

TEST(ResultCache, LruEvictionUnderTinyCapacity) {
  ResultCache cache(2);
  cache.insert(1, verdict(sat::Status::kSat));
  cache.insert(2, verdict(sat::Status::kUnsat));
  ASSERT_TRUE(cache.lookup(1).has_value());  // refresh 1 → LRU order: 1, 2
  cache.insert(3, verdict(sat::Status::kSat));  // evicts 2
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_TRUE(cache.lookup(1).has_value());
  EXPECT_TRUE(cache.lookup(3).has_value());
  const auto c = cache.counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.size, 2u);
}

TEST(ResultCache, ReinsertRefreshesWithoutEviction) {
  ResultCache cache(2);
  cache.insert(1, verdict(sat::Status::kSat, 1.0));
  cache.insert(2, verdict(sat::Status::kUnsat));
  cache.insert(1, verdict(sat::Status::kSat, 9.0));  // refresh, not evict
  EXPECT_EQ(cache.counters().evictions, 0u);
  EXPECT_EQ(cache.lookup(1)->solve_seconds, 9.0);
  EXPECT_TRUE(cache.lookup(2).has_value());
}

TEST(ResultCache, UnknownVerdictsAreRejected) {
  ResultCache cache(8);
  cache.insert(1, verdict(sat::Status::kUnknown));
  EXPECT_FALSE(cache.lookup(1).has_value());
  const auto c = cache.counters();
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.insertions, 0u);
}

TEST(ResultCache, ZeroCapacityDisablesEverything) {
  ResultCache cache(0);
  cache.insert(1, verdict(sat::Status::kSat));
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.counters().evictions, 0u);
  EXPECT_EQ(cache.counters().size, 0u);
}

// --- request parsing --------------------------------------------------------

TEST(SolveServer, ParseRequestAcceptsFullForm) {
  std::string error;
  const auto req = SolveServer::parse_request(
      "solve id=x7 backend=portfolio portfolio=3 max_seconds=1.5 "
      "max_conflicts=100 cache=off expect=unsat family=adder_miter:8",
      error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->id, "x7");
  EXPECT_EQ(req->backend, core::SolveBackend::kPortfolio);
  EXPECT_EQ(req->portfolio_size, 3u);
  EXPECT_DOUBLE_EQ(req->limits.max_seconds, 1.5);
  EXPECT_EQ(req->limits.max_conflicts, 100u);
  EXPECT_FALSE(req->use_cache);
  ASSERT_TRUE(req->expect.has_value());
  EXPECT_EQ(*req->expect, core::Expectation::kUnsat);
  EXPECT_EQ(req->instance, ServerRequest::Instance::kFamily);
  EXPECT_EQ(req->payload, "adder_miter:8");
}

TEST(SolveServer, ParseRequestInlineCnfConsumesRestOfLine) {
  std::string error;
  const auto req =
      SolveServer::parse_request("solve id=c cnf 1 -2 0 2 0", error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->instance, ServerRequest::Instance::kInlineCnf);
  EXPECT_EQ(req->payload, " 1 -2 0 2 0");
}

TEST(SolveServer, ParseRequestRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(SolveServer::parse_request("solve id=a", error).has_value());
  EXPECT_FALSE(SolveServer::parse_request("frobnicate x", error).has_value());
  EXPECT_FALSE(
      SolveServer::parse_request("solve backend=quantum family=adder_miter:4", error)
          .has_value());
  EXPECT_FALSE(
      SolveServer::parse_request("solve bogus family=adder_miter:4", error)
          .has_value());
  EXPECT_FALSE(SolveServer::parse_request(
                   "solve family=adder_miter:4 dimacs=/tmp/x.cnf", error)
                   .has_value());
  EXPECT_FALSE(SolveServer::parse_request("solve portfolio=0 family=adder_miter:4",
                                          error)
                   .has_value());
}

// --- the server ------------------------------------------------------------

/// Collects responses via the in-process hook, keyed by request id.
struct Collector {
  std::mutex mutex;
  std::vector<ServerResponse> responses;

  core::ServerOptions options(std::size_t workers, std::size_t cache_capacity) {
    core::ServerOptions o;
    o.num_workers = workers;
    o.cache_capacity = cache_capacity;
    o.on_response = [this](const ServerResponse& r) {
      const std::lock_guard<std::mutex> lock(mutex);
      responses.push_back(r);
    };
    return o;
  }

  const ServerResponse& by_id(const std::string& id) {
    const std::lock_guard<std::mutex> lock(mutex);
    for (const auto& r : responses)
      if (r.id == id) return r;
    ADD_FAILURE() << "no response with id " << id;
    static const ServerResponse kNone{};
    return kNone;
  }
};

ServerRequest family_request(std::string id, std::string spec) {
  ServerRequest req;
  req.id = std::move(id);
  req.instance = ServerRequest::Instance::kFamily;
  req.payload = std::move(spec);
  return req;
}

/// "name" + index concatenation without `const char* + std::string&&`
/// (which can trip GCC 12's -Wrestrict false positive under -Werror).
std::string cat(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

TEST(SolveServer, ServeStreamEndToEnd) {
  std::istringstream in(
      "# comment, then a blank line\n"
      "\n"
      "solve id=a expect=unsat family=adder_miter:4\n"
      "solve id=b expect=unsat family=adder_miter:4\n"
      "solve id=c cache=off cnf 1 0\n"
      "this is not a request\n"
      "solve id=d cnf 1 -1 0\n"
      "stats\n"
      "quit\n"
      "solve id=never family=adder_miter:4\n");
  std::ostringstream out;
  core::ServerOptions options;
  options.num_workers = 1;  // deterministic response order
  core::SolveServer server(options);
  server.serve(in, out);

  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u);  // 4 solves + 1 parse error + 1 stats

  // The parse-error line is emitted by the reader thread and may interleave
  // anywhere among the worker responses; find lines by content. Solve
  // responses themselves are in submission order (1 worker), and the stats
  // barrier is last.
  const auto line_with = [&](const std::string& needle) {
    for (std::size_t i = 0; i < lines.size(); ++i)
      if (lines[i].find(needle) != std::string::npos) return i;
    ADD_FAILURE() << "no response line contains " << needle;
    return lines.size();
  };
  const std::size_t la = line_with("\"id\":\"a\"");
  const std::size_t lb = line_with("\"id\":\"b\"");
  const std::size_t lc = line_with("\"id\":\"c\"");
  const std::size_t ld = line_with("\"id\":\"d\"");
  ASSERT_LT(ld, lines.size());
  EXPECT_LT(la, lb);
  EXPECT_LT(lb, lc);
  EXPECT_LT(lc, ld);
  EXPECT_NE(lines[la].find("\"status\":\"UNSAT\""), std::string::npos);
  EXPECT_NE(lines[la].find("\"cache\":\"miss\""), std::string::npos);
  EXPECT_NE(lines[lb].find("\"cache\":\"hit\""), std::string::npos);
  EXPECT_NE(lines[lb].find("\"expect\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[lc].find("\"cache\":\"off\""), std::string::npos);
  EXPECT_NE(lines[ld].find("\"status\":\"SAT\""), std::string::npos);
  line_with("\"error\"");
  EXPECT_NE(lines.back().find("\"stats\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"hits\":1"), std::string::npos);

  const auto counters = server.counters();
  EXPECT_EQ(counters.received, 4u);  // the post-quit line was never read
  EXPECT_EQ(counters.completed, 4u);
  EXPECT_EQ(counters.errors, 1u);
  EXPECT_EQ(counters.expect_failures, 0u);
  EXPECT_EQ(server.cache_counters().hits, 1u);
}

TEST(SolveServer, CachedVerdictsMatchFreshSolves) {
  // Differential: every instance of a mixed LEC/ATPG suite is submitted
  // twice; the second submission must hit the cache, and both verdicts must
  // equal an independent fresh pipeline solve.
  constexpr int kCount = 16;
  constexpr std::uint64_t kSeed = 5;
  Collector collector;
  core::SolveServer server(collector.options(/*workers=*/4,
                                             /*cache_capacity=*/64));
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kCount; ++i) {
      std::string spec = cat("suite:", kCount);
      spec += cat(":", static_cast<int>(kSeed));
      spec += cat(":", i);
      ASSERT_TRUE(server.submit(family_request(
          cat(round == 0 ? "fresh" : "again", i), std::move(spec))));
    }
    server.drain();  // round barrier: repeats must find warm entries
  }
  server.stop();

  gen::SuiteParams params;
  params.count = kCount;
  params.seed = kSeed;
  const auto suite = gen::make_suite(params);
  core::PipelineOptions fresh;
  fresh.mode = core::PipelineMode::kBaseline;
  for (int i = 0; i < kCount; ++i) {
    const auto expected = core::solve_instance(suite[i].circuit, fresh);
    const auto& first = collector.by_id(cat("fresh", i));
    const auto& second = collector.by_id(cat("again", i));
    EXPECT_EQ(first.status, expected.status) << suite[i].name;
    EXPECT_EQ(second.status, expected.status) << suite[i].name;
    EXPECT_STREQ(second.cache, "hit") << suite[i].name;
  }
  EXPECT_EQ(server.cache_counters().hits, static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(server.counters().expect_failures, 0u);
}

TEST(SolveServer, MatchesPipelineSearchCounts) {
  // The server and core::solve_instance run one shared solve stage, so a
  // cache-off served solve makes exactly the search of a Baseline pipeline
  // run on the same backend: same verdict, decisions, conflicts and
  // simplified formula size.
  constexpr int kCount = 16;
  constexpr std::uint64_t kSeed = 5;
  const core::SolveBackend backends[] = {core::SolveBackend::kSingle,
                                         core::SolveBackend::kCircuit};
  Collector collector;
  core::SolveServer server(collector.options(/*workers=*/2,
                                             /*cache_capacity=*/0));
  for (const core::SolveBackend backend : backends) {
    for (int i = 0; i < kCount; ++i) {
      std::string spec = cat("suite:", kCount);
      spec += cat(":", static_cast<int>(kSeed));
      spec += cat(":", i);
      ServerRequest request =
          family_request(cat(core::to_string(backend), i), std::move(spec));
      request.backend = backend;
      ASSERT_TRUE(server.submit(std::move(request)));
    }
  }
  server.drain();
  server.stop();

  gen::SuiteParams params;
  params.count = kCount;
  params.seed = kSeed;
  const auto suite = gen::make_suite(params);
  for (const core::SolveBackend backend : backends) {
    core::PipelineOptions options;
    options.mode = core::PipelineMode::kBaseline;
    options.backend = backend;
    for (int i = 0; i < kCount; ++i) {
      const auto expected = core::solve_instance(suite[i].circuit, options);
      const auto& served = collector.by_id(cat(core::to_string(backend), i));
      std::string name = suite[i].name;
      name += ' ';
      name += core::to_string(backend);
      ASSERT_TRUE(served.error.empty()) << name << ": " << served.error;
      EXPECT_EQ(served.status, expected.status) << name;
      if (backend == core::SolveBackend::kCircuit) {
        EXPECT_EQ(served.circuit_stats.decisions,
                  expected.circuit_stats.decisions) << name;
        EXPECT_EQ(served.circuit_stats.conflicts,
                  expected.circuit_stats.conflicts) << name;
      } else {
        EXPECT_EQ(served.stats.decisions, expected.solver_stats.decisions)
            << name;
        EXPECT_EQ(served.stats.conflicts, expected.solver_stats.conflicts)
            << name;
      }
      EXPECT_EQ(served.simplified_vars, expected.simplified_vars) << name;
    }
  }
}

TEST(SolveServer, EvictionUnderTinyCapacity) {
  Collector collector;
  core::SolveServer server(collector.options(/*workers=*/1,
                                             /*cache_capacity=*/1));
  // Alternating instances never hit a 1-entry cache...
  server.submit(family_request("a1", "adder_miter:4"));
  server.submit(family_request("b1", "adder_miter:5"));
  server.submit(family_request("a2", "adder_miter:4"));
  server.submit(family_request("b2", "adder_miter:5"));
  // ... but immediate repetition does.
  server.submit(family_request("b3", "adder_miter:5"));
  server.drain();
  server.stop();

  EXPECT_STREQ(collector.by_id("a2").cache, "miss");
  EXPECT_STREQ(collector.by_id("b2").cache, "miss");
  EXPECT_STREQ(collector.by_id("b3").cache, "hit");
  const auto cc = server.cache_counters();
  EXPECT_EQ(cc.hits, 1u);
  EXPECT_EQ(cc.evictions, 3u);
  EXPECT_EQ(cc.size, 1u);
}

TEST(SolveServer, CoalescesConcurrentDuplicates) {
  // Six copies of the same hard miter hit a 4-worker pool at once: exactly
  // one solve may happen (the leader's); the rest must park on the
  // in-flight key or arrive late and serve the cache hit either way.
  Collector collector;
  core::SolveServer server(collector.options(/*workers=*/4,
                                             /*cache_capacity=*/8));
  for (int i = 0; i < 6; ++i)
    server.submit(family_request(cat("dup", i), "adder_miter:10"));
  server.drain();
  server.stop();

  const auto cc = server.cache_counters();
  EXPECT_EQ(cc.hits, 5u);        // every non-leader ends on a hit
  EXPECT_EQ(cc.insertions, 1u);  // only the leader ever solved
  std::uint64_t leader_conflicts = 0;
  for (int i = 0; i < 6; ++i) {
    const auto& r = collector.by_id(cat("dup", i));
    EXPECT_EQ(r.status, sat::Status::kUnsat);
    // Coalesced responses replay the leader's statistics.
    if (i == 0) {
      leader_conflicts = r.stats.conflicts;
    } else {
      EXPECT_EQ(r.stats.conflicts, leader_conflicts);
    }
  }
}

TEST(SolveServer, UnknownVerdictsAreNeverCached) {
  Collector collector;
  core::SolveServer server(collector.options(/*workers=*/1,
                                             /*cache_capacity=*/8));
  ServerRequest budgeted = family_request("b1", "adder_miter:10");
  budgeted.limits.max_conflicts = 1;
  server.submit(budgeted);
  budgeted.id = "b2";
  server.submit(budgeted);  // same instance, same tiny budget: still a miss
  server.drain();
  server.stop();

  EXPECT_EQ(collector.by_id("b1").status, sat::Status::kUnknown);
  EXPECT_STREQ(collector.by_id("b2").cache, "miss");
  EXPECT_EQ(server.cache_counters().hits, 0u);
  EXPECT_GE(server.cache_counters().rejected, 2u);
}

TEST(SolveServer, PortfolioBackendAgreesWithSequential) {
  Collector collector;
  core::SolveServer server(collector.options(/*workers=*/2,
                                             /*cache_capacity=*/0));
  for (int i = 0; i < 6; ++i) {
    const std::string spec = cat("suite:6:3:", i);
    ServerRequest seq = family_request(cat("seq", i), spec);
    ServerRequest par = family_request(cat("par", i), spec);
    par.backend = core::SolveBackend::kPortfolio;
    par.portfolio_size = 2;
    server.submit(seq);
    server.submit(par);
  }
  server.drain();
  server.stop();

  for (int i = 0; i < 6; ++i) {
    const auto& seq = collector.by_id(cat("seq", i));
    const auto& par = collector.by_id(cat("par", i));
    EXPECT_TRUE(seq.error.empty()) << seq.error;
    EXPECT_NE(seq.status, sat::Status::kUnknown);
    EXPECT_EQ(seq.status, par.status) << "instance " << i;
  }
}

TEST(SolveServer, GateFreeSuiteDrawsGetVerdicts) {
  // Gate-free random_xor draws of the default suite: an ATPG instance and a
  // buggy LEC instance whose generation used to abort the whole process.
  // Each gets one verdict, and the server keeps serving afterwards.
  Collector collector;
  core::SolveServer server(collector.options(/*workers=*/1,
                                             /*cache_capacity=*/0));
  server.submit(family_request("atpg", "suite:4096:5:350"));
  server.submit(family_request("lec", "suite:4096:2:1957"));
  server.submit(family_request("after", "adder_miter:6"));
  server.drain();
  server.stop();

  for (const char* id : {"atpg", "lec"}) {
    const auto& r = collector.by_id(id);
    EXPECT_TRUE(r.error.empty()) << id << ": " << r.error;
    EXPECT_NE(r.status, sat::Status::kUnknown) << id;
  }
  EXPECT_EQ(collector.by_id("lec").status, sat::Status::kSat);
  EXPECT_EQ(collector.by_id("after").status, sat::Status::kUnsat);
  EXPECT_EQ(collector.responses.size(), 3u);
}

TEST(SolveServer, BuildErrorsProduceErrorResponses) {
  Collector collector;
  core::SolveServer server(collector.options(/*workers=*/1,
                                             /*cache_capacity=*/8));
  ServerRequest bad_family = family_request("f", "no_such_family:3");
  ServerRequest bad_file;
  bad_file.id = "g";
  bad_file.instance = ServerRequest::Instance::kDimacsFile;
  bad_file.payload = "/nonexistent/path/x.cnf";
  ServerRequest bad_inline;
  bad_inline.id = "h";
  bad_inline.instance = ServerRequest::Instance::kInlineCnf;
  bad_inline.payload = "1 2";  // missing terminating 0
  server.submit(bad_family);
  server.submit(bad_file);
  server.submit(bad_inline);
  server.drain();
  server.stop();

  EXPECT_FALSE(collector.by_id("f").error.empty());
  EXPECT_FALSE(collector.by_id("g").error.empty());
  EXPECT_FALSE(collector.by_id("h").error.empty());
  EXPECT_EQ(server.counters().errors, 3u);
}

}  // namespace
}  // namespace csat
