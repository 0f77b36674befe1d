// Portfolio solving demo: solve a generated suite of CSAT instances once
// with the single-config backend and once racing a diversified solver
// portfolio per instance (with cross-worker clause sharing), and
// cross-check every answer.
//
//   $ ./portfolio_solve [--instances=N] [--portfolio=K]
//                       [--mode=baseline|comp|ours] [--seed=S]
//                       [--sharing=on|off] [--glue=L]
//
// Exits non-zero if any portfolio verdict disagrees with the single-config
// one — the portfolio must change wall-clock time only, never answers. The
// final section races one hard UNSAT miter directly through
// sat::solve_portfolio and prints per-worker exported/imported
// clause-sharing traffic.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cnf/tseitin.h"
#include "common/stopwatch.h"
#include "core/pipeline.h"
#include "gen/miter.h"
#include "gen/suite.h"
#include "sat/portfolio.h"

using namespace csat;

namespace {

const char* status_name(sat::Status s) {
  return s == sat::Status::kSat     ? "SAT"
         : s == sat::Status::kUnsat ? "UNSAT"
                                    : "UNKNOWN";
}

/// One backend over the whole suite, in order.
struct SuiteRun {
  std::vector<core::PipelineResult> results;
  double seconds = 0.0;
  std::size_t count[3] = {0, 0, 0};  ///< SAT, UNSAT, UNKNOWN (sat::Status)
  std::uint64_t clauses_exported = 0;
  std::uint64_t clauses_imported = 0;
};

SuiteRun solve_suite(const std::vector<aig::Aig>& circuits,
                     const core::PipelineOptions& options) {
  SuiteRun run;
  Stopwatch watch;
  for (const aig::Aig& g : circuits) {
    run.results.push_back(core::solve_instance(g, options));
    const core::PipelineResult& r = run.results.back();
    ++run.count[static_cast<int>(r.status)];
    run.clauses_exported += r.clauses_exported;
    run.clauses_imported += r.clauses_imported;
  }
  run.seconds = watch.seconds();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  int instances = 64;
  std::size_t portfolio = 4;
  std::string mode = "comp";
  std::uint64_t seed = 1;
  bool sharing = true;
  std::uint32_t glue = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--instances=", 0) == 0) {
      instances = std::atoi(arg.c_str() + 12);
      if (instances < 0) {
        std::fprintf(stderr, "--instances must be >= 0\n");
        return 2;
      }
    } else if (arg.rfind("--portfolio=", 0) == 0) {
      const int v = std::atoi(arg.c_str() + 12);
      if (v < 1) {
        std::fprintf(stderr, "--portfolio must be >= 1\n");
        return 2;
      }
      portfolio = static_cast<std::size_t>(v);
    } else if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(7);
      if (mode != "baseline" && mode != "comp" && mode != "ours") {
        std::fprintf(stderr, "--mode must be baseline, comp or ours\n");
        return 2;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--sharing=", 0) == 0) {
      const std::string v = arg.substr(10);
      if (v != "on" && v != "off") {
        std::fprintf(stderr, "--sharing must be on or off\n");
        return 2;
      }
      sharing = v == "on";
    } else if (arg.rfind("--glue=", 0) == 0) {
      const int v = std::atoi(arg.c_str() + 7);
      if (v < 0) {
        std::fprintf(stderr, "--glue must be >= 0\n");
        return 2;
      }
      glue = static_cast<std::uint32_t>(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  // --- 1. Generate a mixed LEC/ATPG suite --------------------------------
  gen::SuiteParams params;
  params.count = instances;
  params.seed = seed;
  const auto suite = gen::make_suite(params);
  std::vector<aig::Aig> circuits;
  circuits.reserve(suite.size());
  for (const auto& inst : suite) circuits.push_back(inst.circuit);
  std::printf("suite: %zu instances (seed %llu)\n", circuits.size(),
              static_cast<unsigned long long>(seed));

  core::PipelineOptions base;
  base.mode = mode == "baseline" ? core::PipelineMode::kBaseline
              : mode == "ours"   ? core::PipelineMode::kOurs
                                 : core::PipelineMode::kComp;

  // --- 2. Single-config reference, then a portfolio race per instance ----
  core::PipelineOptions racing = base;
  racing.backend = core::SolveBackend::kPortfolio;
  racing.portfolio_size = portfolio;
  racing.portfolio_sharing.enabled = sharing;
  racing.portfolio_sharing.max_lbd = glue;
  const SuiteRun ref = solve_suite(circuits, base);
  std::printf("single:        %zu SAT, %zu UNSAT, %zu UNKNOWN in %.3fs\n",
              ref.count[0], ref.count[1], ref.count[2], ref.seconds);
  const SuiteRun run = solve_suite(circuits, racing);
  std::printf("portfolio(%zu):  %zu SAT, %zu UNSAT, %zu UNKNOWN in %.3fs\n",
              portfolio, run.count[0], run.count[1], run.count[2],
              run.seconds);
  std::printf("clause sharing %s (glue<=%u): %llu exported, %llu imported "
              "across the suite\n",
              sharing ? "on" : "off", glue,
              static_cast<unsigned long long>(run.clauses_exported),
              static_cast<unsigned long long>(run.clauses_imported));

  // --- 3. Answers must be identical --------------------------------------
  int mismatches = 0;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    if (ref.results[i].status != run.results[i].status) {
      std::fprintf(stderr, "MISMATCH %-24s single=%s portfolio=%s\n",
                   suite[i].name.c_str(), status_name(ref.results[i].status),
                   status_name(run.results[i].status));
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "%d mismatching verdicts\n", mismatches);
    return 1;
  }
  std::printf("all %zu verdicts agree; speedup %.2fx\n", circuits.size(),
              run.seconds > 0.0 ? ref.seconds / run.seconds : 0.0);

  // --- 4. Per-worker sharing traffic on one hard UNSAT miter --------------
  // An adder-equivalence miter (ripple-carry vs Kogge-Stone) is UNSAT and
  // needs real search in every worker, so the exchange sees traffic.
  const auto miter_cnf = cnf::tseitin_encode(gen::make_adder_miter(10)).cnf;
  sat::PortfolioOptions popt;
  popt.num_workers = portfolio;
  popt.sharing.enabled = sharing;
  popt.sharing.max_lbd = glue;
  const auto race = sat::solve_portfolio(miter_cnf, popt);
  std::printf("\nadder miter race (%s, sharing %s): winner %zu in %.3fs\n",
              status_name(race.status), sharing ? "on" : "off",
              race.winner == sat::PortfolioResult::kNoWinner
                  ? static_cast<std::size_t>(0)
                  : race.winner,
              race.seconds);
  for (std::size_t w = 0; w < race.workers.size(); ++w) {
    const auto& st = race.workers[w].stats;
    std::printf("  worker %zu: %-8s %8llu conflicts, %6llu exported, "
                "%6llu imported (%llu lost to overwrite)\n",
                w, status_name(race.workers[w].status),
                static_cast<unsigned long long>(st.conflicts),
                static_cast<unsigned long long>(st.exported),
                static_cast<unsigned long long>(st.imported),
                static_cast<unsigned long long>(st.import_lost));
    std::printf("            inprocessing: %llu reused trails\n",
                static_cast<unsigned long long>(st.reused_trails));
  }
  return 0;
}
