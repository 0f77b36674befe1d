#include "sat/drat_check.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <sstream>
#include <unordered_map>

namespace csat::sat {
namespace {

constexpr std::uint8_t kFalse = 0;
constexpr std::uint8_t kTrue = 1;
constexpr std::uint8_t kUnknown = 2;

/// FNV-1a over the sorted literal sequence — the multiset-deletion lookup
/// key (sorting makes it order-invariant).
std::uint64_t clause_hash(std::span<const Lit> sorted) {
  std::uint64_t h = 1469598103934665603ull;
  for (Lit l : sorted) {
    h ^= l.x;
    h *= 1099511628211ull;
  }
  return h;
}

/// Forward RUP/RAT checker over an incrementally grown clause set.
///
/// BCP uses two watched literals per stored clause (size >= 2) so each RUP
/// check costs propagation over the touched clauses only, not a scan of
/// the whole set. Stored literal order is canonical (sorted) and never
/// mutated — the watches are *indices* into the clause — so deletion can
/// compare literal vectors directly. The root-level trail (facts implied
/// by unit clauses) persists and grows monotonically; RUP probes push
/// assumptions on top of it and unwind back to the root mark. Occurrence
/// lists (literal -> clauses containing it) serve the RAT resolvent scan;
/// watcher and occurrence entries of deleted clauses are dropped lazily.
class Checker {
 public:
  explicit Checker(const cnf::Cnf& formula) {
    ensure_var_capacity(formula.num_vars());
    for (std::size_t i = 0; i < formula.num_clauses(); ++i) {
      ingest(formula.clause(i));
      if (root_conflict_) break;
    }
  }

  /// Validates one addition: tautologies pass trivially, everything else
  /// must be RUP or RAT on \p pivot (the clause's first literal as
  /// emitted). Accepted clauses join the set.
  bool check_add(std::span<const Lit> lits, std::string& error) {
    if (root_conflict_) return true;  // the empty clause is already implied
    norm_.assign(lits.begin(), lits.end());
    for (Lit l : norm_) ensure_var_capacity(l.var() + 1);
    std::sort(norm_.begin(), norm_.end());
    norm_.erase(std::unique(norm_.begin(), norm_.end()), norm_.end());
    if (is_tautology(norm_)) return true;

    if (!rup(norm_)) {
      // RAT fallback on the first literal of the emitted clause.
      if (lits.empty() || !rat(lits.front(), norm_, error)) {
        if (error.empty()) error = "clause is neither RUP nor RAT";
        return false;
      }
    }
    store(norm_);
    return true;
  }

  /// One deletion: removes one active instance with the same literal
  /// multiset, if any. Unit-clause and unmatched deletions are ignored.
  void check_delete(std::span<const Lit> lits) {
    norm_.assign(lits.begin(), lits.end());
    std::sort(norm_.begin(), norm_.end());
    norm_.erase(std::unique(norm_.begin(), norm_.end()), norm_.end());
    if (norm_.size() < 2) return;  // units keep the root trail monotone
    auto it = index_.find(clause_hash(norm_));
    if (it == index_.end()) return;
    for (std::uint32_t id : it->second) {
      if (clauses_[id].active && clauses_[id].lits == norm_) {
        clauses_[id].active = false;
        return;
      }
    }
  }

  [[nodiscard]] bool root_conflict() const { return root_conflict_; }

 private:
  struct CClause {
    std::vector<Lit> lits;  ///< sorted, deduplicated, never reordered
    std::uint32_t watch[2] = {0, 1};  ///< indices into lits
    bool active = true;
  };

  static bool is_tautology(const std::vector<Lit>& sorted) {
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i].x == (sorted[i - 1].x ^ 1u)) return true;
    }
    return false;
  }

  void ensure_var_capacity(std::uint32_t vars) {
    if (static_cast<std::size_t>(vars) * 2 > value_.size()) {
      value_.resize(static_cast<std::size_t>(vars) * 2, kUnknown);
      watches_.resize(static_cast<std::size_t>(vars) * 2);
      occs_.resize(static_cast<std::size_t>(vars) * 2);
    }
  }

  [[nodiscard]] std::uint8_t value(Lit l) const { return value_[l.x]; }

  void assign(Lit l) {
    value_[l.x] = kTrue;
    value_[l.x ^ 1u] = kFalse;
    trail_.push_back(l);
  }

  void unassign_to(std::size_t mark) {
    while (trail_.size() > mark) {
      const Lit l = trail_.back();
      trail_.pop_back();
      value_[l.x] = kUnknown;
      value_[l.x ^ 1u] = kUnknown;
    }
    qhead_ = mark;
  }

  /// Unit-propagates from qhead_. Returns false on conflict. Watcher
  /// entries of inactive clauses are compacted away as they are visited.
  bool propagate() {
    while (qhead_ < trail_.size()) {
      const Lit fl = !trail_[qhead_++];  // just became false
      std::vector<std::uint32_t>& ws = watches_[fl.x];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < ws.size(); ++i) {
        const std::uint32_t id = ws[i];
        CClause& c = clauses_[id];
        if (!c.active) continue;  // lazy removal
        const int wi = c.lits[c.watch[0]] == fl ? 0 : 1;
        const Lit other = c.lits[c.watch[1 - wi]];
        if (value(other) == kTrue) {
          ws[keep++] = id;
          continue;
        }
        bool moved = false;
        for (std::uint32_t k = 0; k < c.lits.size(); ++k) {
          if (k == c.watch[0] || k == c.watch[1]) continue;
          if (value(c.lits[k]) != kFalse) {
            c.watch[wi] = k;
            watches_[c.lits[k].x].push_back(id);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        ws[keep++] = id;  // clause stays watched on fl
        if (value(other) == kFalse) {  // conflict
          for (std::size_t j = i + 1; j < ws.size(); ++j) ws[keep++] = ws[j];
          ws.resize(keep);
          return false;
        }
        assign(other);  // unit
      }
      ws.resize(keep);
    }
    return true;
  }

  /// Reverse unit propagation: assume the negation of every literal of
  /// \p clause on top of the root trail; success = conflict. The trail is
  /// always unwound back to the entry mark.
  bool rup(std::span<const Lit> clause) {
    const std::size_t mark = trail_.size();
    bool conflict = false;
    for (Lit l : clause) {
      const std::uint8_t v = value(l);
      if (v == kTrue) {  // !l contradicts the accumulated facts
        conflict = true;
        break;
      }
      if (v == kUnknown) assign(!l);
    }
    if (!conflict) conflict = !propagate();
    unassign_to(mark);
    return conflict;
  }

  /// RAT on \p pivot: every active clause containing !pivot must yield a
  /// tautological or RUP resolvent with \p clause.
  bool rat(Lit pivot, const std::vector<Lit>& clause, std::string& error) {
    if (std::find(clause.begin(), clause.end(), pivot) == clause.end())
      return false;  // normalization never drops the pivot today
    std::vector<std::uint32_t>& occ = occs_[(!pivot).x];
    std::size_t keep = 0;
    bool ok = true;
    for (std::size_t i = 0; i < occ.size(); ++i) {
      const std::uint32_t id = occ[i];
      const CClause& c = clauses_[id];
      if (!c.active) continue;  // lazy removal
      occ[keep++] = id;
      if (!ok) continue;
      resolvent_.clear();
      for (Lit l : clause)
        if (l != pivot) resolvent_.push_back(l);
      for (Lit l : c.lits)
        if (l != !pivot) resolvent_.push_back(l);
      std::sort(resolvent_.begin(), resolvent_.end());
      resolvent_.erase(std::unique(resolvent_.begin(), resolvent_.end()),
                       resolvent_.end());
      if (is_tautology(resolvent_)) continue;
      if (!rup(resolvent_)) {
        error = "RAT resolvent on pivot " + std::to_string(pivot.to_dimacs()) +
                " is not RUP";
        ok = false;
      }
    }
    occ.resize(keep);
    return ok;
  }

  /// Adds a clause to the set with no validity check (formula ingest).
  void ingest(std::span<const Lit> lits) {
    norm_.assign(lits.begin(), lits.end());
    for (Lit l : norm_) ensure_var_capacity(l.var() + 1);
    std::sort(norm_.begin(), norm_.end());
    norm_.erase(std::unique(norm_.begin(), norm_.end()), norm_.end());
    if (is_tautology(norm_)) return;
    store(norm_);
  }

  /// Stores a normalized clause and restores the root propagation
  /// fixpoint. Must be called with the trail at the root mark.
  void store(const std::vector<Lit>& sorted) {
    if (sorted.empty()) {
      root_conflict_ = true;
      return;
    }
    if (sorted.size() == 1) {
      // Units live on the root trail, not in the watched set.
      const std::uint8_t v = value(sorted[0]);
      if (v == kFalse || (v == kUnknown && (assign(sorted[0]), !propagate())))
        root_conflict_ = true;
      return;
    }
    const std::uint32_t id = static_cast<std::uint32_t>(clauses_.size());
    clauses_.push_back(CClause{sorted, {0, 1}, true});
    CClause& c = clauses_.back();
    index_[clause_hash(sorted)].push_back(id);
    for (Lit l : sorted) occs_[l.x].push_back(id);
    // Watch non-false literals so the invariant (a false watch implies the
    // clause is satisfied or unit-propagated) holds from birth; a clause
    // unit under the root assignment propagates right away.
    std::uint32_t non_false = 0;
    for (std::uint32_t k = 0; k < c.lits.size() && non_false < 2; ++k) {
      if (value(c.lits[k]) != kFalse) c.watch[non_false++] = k;
    }
    if (non_false == 1 && c.watch[0] == c.watch[1])
      c.watch[1] = c.watch[0] == 0 ? 1 : 0;  // any second (false) index
    watches_[c.lits[c.watch[0]].x].push_back(id);
    watches_[c.lits[c.watch[1]].x].push_back(id);
    if (non_false == 0) {
      root_conflict_ = true;
    } else if (non_false == 1 && value(c.lits[c.watch[0]]) == kUnknown) {
      assign(c.lits[c.watch[0]]);
      if (!propagate()) root_conflict_ = true;
    }
  }

  std::vector<CClause> clauses_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index_;
  std::vector<std::vector<std::uint32_t>> watches_;  // by Lit.x
  std::vector<std::vector<std::uint32_t>> occs_;     // by Lit.x
  std::vector<std::uint8_t> value_;                  // by Lit.x
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
  bool root_conflict_ = false;

  std::vector<Lit> norm_;       // scratch: normalized clause in hand
  std::vector<Lit> resolvent_;  // scratch: RAT resolvents
};

}  // namespace

DratResult check_drat(const cnf::Cnf& formula,
                      std::span<const ProofStep> proof) {
  Checker checker(formula);
  DratResult result;
  for (std::size_t i = 0; i < proof.size(); ++i) {
    const ProofStep& step = proof[i];
    if (step.is_delete) {
      checker.check_delete(step.lits);
    } else {
      std::string error;
      if (!checker.check_add(step.lits, error)) {
        result.failed_step = i;
        result.error = "step " + std::to_string(i) + ": " + error;
        result.steps_checked = i;
        return result;
      }
      if (step.lits.empty() || checker.root_conflict()) {
        result.valid = true;
        result.proved_unsat = true;
        result.steps_checked = i + 1;
        return result;
      }
    }
    ++result.steps_checked;
  }
  result.valid = true;
  result.proved_unsat = checker.root_conflict();
  return result;
}

bool parse_drat_text(std::istream& in, std::vector<ProofStep>& out,
                     std::string& error) {
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first)) continue;  // blank line
    if (first == "c") continue;        // comment
    ProofStep step;
    bool terminated = false;
    if (first == "d") {
      step.is_delete = true;
    } else {
      long long d = 0;
      try {
        d = std::stoll(first);
      } catch (const std::exception&) {
        error = "line " + std::to_string(line_no) + ": bad token '" + first + "'";
        return false;
      }
      if (d == 0) {
        terminated = true;
      } else {
        step.lits.push_back(Lit::from_dimacs(static_cast<int>(d)));
      }
    }
    long long d = 0;
    while (!terminated && tokens >> d) {
      if (d == 0) {
        terminated = true;
        break;
      }
      step.lits.push_back(Lit::from_dimacs(static_cast<int>(d)));
    }
    if (!terminated) {
      error = "line " + std::to_string(line_no) + ": missing terminating 0";
      return false;
    }
    out.push_back(std::move(step));
  }
  return true;
}

}  // namespace csat::sat
