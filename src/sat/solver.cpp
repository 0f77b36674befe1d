#include "sat/solver.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"
#include "sat/proof.h"

namespace csat::sat {

namespace {
constexpr Lit kLitUndef = Lit(std::numeric_limits<std::uint32_t>::max());
}  // namespace

Solver::Solver(SolverConfig config)
    : Cdcl(config), config_(config), rng_state_(config.seed | 1) {}

std::uint32_t Solver::new_var() {
  const std::uint32_t v = num_vars();
  resize_vars(static_cast<std::size_t>(v) + 1);
  if (config_.default_phase) phase_[v] = kTrue;
  heap_pos_.push_back(-1);
  heap_insert(v);
  return v;
}

void Solver::set_proof(ProofTracer* tracer) {
  if (tracer != nullptr) {
    CSAT_CHECK_MSG(exchange_ == nullptr,
                   "proof emission and clause sharing are mutually exclusive "
                   "(imported clauses are not RUP-derivable from this "
                   "worker's run)");
    CSAT_CHECK_MSG(num_vars() == 0,
                   "set_proof() must be called before clauses are added: the "
                   "proof's premise set is the formula added afterwards");
  }
  proof_ = tracer;
  proof_empty_emitted_ = false;
}

void Solver::emit_proof_add(std::span<const Lit> lits) { proof_->add(lits); }

void Solver::emit_proof_delete(std::span<const Lit> lits) {
  proof_->remove(lits);
}

Status Solver::proved_unsat() {
  if (proof_ != nullptr && !proof_empty_emitted_) {
    proof_->add({});
    proof_empty_emitted_ = true;
  }
  return Status::kUnsat;
}

void Solver::add_formula(const Cnf& formula) {
  while (num_vars() < formula.num_vars()) new_var();
  reserve_watches(formula);
  for (std::size_t i = 0; i < formula.num_clauses(); ++i) {
    if (!add_clause(formula.clause(i))) return;  // already UNSAT; keep ok_ false
  }
}

void Solver::reserve_watches(const Cnf& formula) {
  FlatLists<ClauseDb::Watcher>& watches = db_.watches();
  FlatLists<Lit>& binaries = db_.binaries();
  if (watches.total_slots() != 0 || binaries.total_slots() != 0) return;
  const std::size_t nlits = 2 * static_cast<std::size_t>(num_vars());
  std::vector<std::uint32_t> longs(nlits, 0);
  std::vector<std::uint32_t> bins(nlits, 0);
  for (std::size_t i = 0; i < formula.num_clauses(); ++i) {
    const auto c = formula.clause(i);
    if (c.size() < 2) continue;
    // The two smallest distinct literals are the ones ClauseDb::attach()
    // will watch after normalize_at_root() sorts the clause. Clauses that
    // normalization shrinks or drops make this histogram an overestimate,
    // which only leaves slack capacity — never a relocation.
    Lit lo = kLitUndef;
    Lit hi = kLitUndef;
    for (const Lit l : c) {
      if (lo == kLitUndef || l < lo) {
        if (lo != kLitUndef && lo != l) hi = lo;
        lo = l;
      } else if (l != lo && (hi == kLitUndef || l < hi)) {
        hi = l;
      }
    }
    if (hi == kLitUndef) continue;  // all duplicates: a unit after dedup
    auto& table = c.size() == 2 ? bins : longs;
    ++table[(!lo).x];
    ++table[(!hi).x];
  }
  watches.reserve_lists(longs);
  binaries.reserve_lists(bins);
}

Solver::RootNorm Solver::normalize_at_root(std::span<const Lit> lits,
                                           std::vector<Lit>& out) {
  CSAT_DCHECK(decision_level() == 0);
  std::vector<Lit>& c = norm_scratch_;
  c.assign(lits.begin(), lits.end());
  std::sort(c.begin(), c.end());
  out.clear();
  out.reserve(c.size());
  Lit prev = kLitUndef;
  for (Lit l : c) {
    CSAT_CHECK(l.var() < num_vars());
    if (l == prev) continue;
    if (prev != kLitUndef && l == !prev) return RootNorm::kRedundant;  // tautology
    const std::uint8_t v = value(l);
    if (v == kTrue && level_[l.var()] == 0)
      return RootNorm::kRedundant;  // satisfied at root
    if (v == kFalse && level_[l.var()] == 0) {
      prev = l;
      continue;  // falsified at root: drop literal
    }
    out.push_back(l);
    prev = l;
  }
  return out.empty() ? RootNorm::kEmpty : RootNorm::kClause;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  if (!ok_) return false;
  CSAT_CHECK_MSG(decision_level() == 0, "clauses must be added at level 0");

  std::vector<Lit>& out = root_clause_;
  switch (normalize_at_root(lits, out)) {
    case RootNorm::kRedundant:
      return true;
    case RootNorm::kEmpty:
      ok_ = false;
      return false;
    case RootNorm::kClause:
      break;
  }
  if (out.size() == 1) {
    if (value(out[0]) == kFalse) {
      ok_ = false;
      return false;
    }
    if (value(out[0]) == kUnknown) enqueue(out[0], Reason::none());
    if (!propagate().is_none()) {
      ok_ = false;
      return false;
    }
    return true;
  }
  (void)db_.attach(out, /*learnt=*/false, /*lbd=*/0);
  return true;
}

Conflict Solver::propagate() {
  FlatLists<Lit>& binaries = db_.binaries();
  for (;;) {
    // Binary clauses first, to fixpoint: each list entry *is* the implied
    // literal, so the whole pass runs on dense Lit slabs with no arena
    // access — and any binary conflict surfaces before a single long
    // clause is inspected.
    while (bin_qhead_ < trail_.size()) {
      const Lit p = trail_[bin_qhead_++];
      // Counted at the *leading* queue head, where this literal's
      // propagation starts: "dequeued for processing", the semantics every
      // budget derived from the counter assumes.
      ++stats_.propagations;
      const FlatLists<Lit>::Head bh = binaries.head(p.x);
      const Lit* bl = binaries.data() + bh.offset;
      for (std::uint32_t k = 0; k < bh.size; ++k) {
        const Lit other = bl[k];
        const std::uint8_t v = value(other);
        if (v == kTrue) continue;
        if (v == kFalse) {
          bin_qhead_ = trail_.size();
          qhead_ = trail_.size();
          return Conflict::binary(other, !p);
        }
        ++stats_.binary_props;
        enqueue(other, Reason::binary(!p));
      }
    }
    if (qhead_ >= trail_.size()) break;

    const Lit p = trail_[qhead_++];  // p is now true (counted at bin_qhead_)
    // The next literal's watcher slab is the guaranteed next read: get its
    // first line in flight while this literal is processed.
    if (qhead_ < trail_.size()) db_.prefetch(trail_[qhead_]);
    const ClauseRef confl =
        db_.propagate(p, value_.data(), [this](Lit first, ClauseRef cref) {
          enqueue(first, Reason::clause(cref));
        });
    if (confl != kClauseRefUndef) {
      qhead_ = trail_.size();
      bin_qhead_ = trail_.size();
      return Conflict::clause(confl);
    }
  }
  return {};
}

void Solver::backtrack(std::uint32_t target) {
  if (decision_level() <= target) return;
  const std::uint32_t limit = trail_lim_[target];
  for (std::size_t i = limit; i < trail_.size(); ++i) {
    const std::uint32_t v = trail_[i].var();
    phase_[v] = var_value(v);
    value_[v << 1] = kUnknown;
    value_[(v << 1) | 1] = kUnknown;
    reason_[v] = Reason::none();
    if (heap_pos_[v] < 0) heap_insert(v);
  }
  trail_.resize(limit);
  trail_lim_.resize(target);
  qhead_ = limit;
  bin_qhead_ = limit;
}

void Solver::minimize(std::vector<Lit>& learnt) {
  // Recursive, abstraction-guarded: lit_redundant() adds kSeenRemovable /
  // kSeenFailed marks beside the clause's kSeenSource ones and records
  // them in analyze_clear_.
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i)
    abstract_levels |= 1u << (level_[learnt[i].var()] & 31);
  std::size_t out = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const Lit l = learnt[i];
    if (reason_[l.var()].is_none() || !lit_redundant(l, abstract_levels))
      learnt[out++] = l;
    else
      ++stats_.minimized_lits;
  }
  learnt.resize(out);
}

bool Solver::lit_redundant(Lit lit, std::uint32_t abstract_levels) {
  // Depth-first over antecedents, keeping the path from `lit` on an
  // explicit stack. A literal is marked kSeenRemovable once every one of
  // its antecedents is at level 0, a clause literal or removable; on a
  // failure every literal on the path is marked kSeenFailed. Both marks
  // persist until the kernel's analysis clears them, so later clause
  // literals reuse the verdicts and no variable is expanded twice in one
  // conflict.

  // Antecedent literals of q's reason, excluding q itself. Only the latest
  // span is in use, so reason_lits()' buffer may be reused.
  const auto antecedents = [this](Lit q) { return reason_lits(q).subspan(1); };
  const auto mark = [&](Lit q, std::uint8_t verdict) {
    if (seen_[q.var()] != kSeenNone) return;  // a clause literal keeps its mark
    seen_[q.var()] = verdict;
    analyze_clear_.push_back(q);
  };

  analyze_stack_.clear();
  Lit p = lit;
  std::span<const Lit> rest = antecedents(p);
  std::uint32_t next = 0;
  for (;;) {
    if (next < rest.size()) {
      const Lit l = rest[next++];
      const std::uint32_t v = l.var();
      if (level_[v] == 0 || seen_[v] == kSeenSource ||
          seen_[v] == kSeenRemovable)
        continue;
      if (seen_[v] == kSeenFailed || reason_[v].is_none() ||
          ((1u << (level_[v] & 31)) & abstract_levels) == 0) {
        mark(p, kSeenFailed);
        for (const MinimizeFrame& f : analyze_stack_) mark(f.lit, kSeenFailed);
        return false;
      }
      analyze_stack_.push_back({p, next});
      p = l;
      rest = antecedents(p);
      next = 0;
      continue;
    }
    mark(p, kSeenRemovable);
    if (analyze_stack_.empty()) return true;
    p = analyze_stack_.back().lit;
    next = analyze_stack_.back().next;
    analyze_stack_.pop_back();
    rest = antecedents(p);
  }
}

// --- decision heap ---------------------------------------------------------

void Solver::heap_insert(std::uint32_t v) {
  heap_pos_[v] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_up(static_cast<std::uint32_t>(heap_.size() - 1));
}

std::uint32_t Solver::heap_pop() {
  const std::uint32_t top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_down(0);
  }
  return top;
}

void Solver::heap_up(std::uint32_t pos) {
  const std::uint32_t v = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!heap_less(v, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_pos_[heap_[pos]] = static_cast<std::int32_t>(pos);
    pos = parent;
  }
  heap_[pos] = v;
  heap_pos_[v] = static_cast<std::int32_t>(pos);
}

void Solver::heap_down(std::uint32_t pos) {
  const std::uint32_t v = heap_[pos];
  const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child + 1], heap_[child])) ++child;
    if (!heap_less(heap_[child], v)) break;
    heap_[pos] = heap_[child];
    heap_pos_[heap_[pos]] = static_cast<std::int32_t>(pos);
    pos = child;
  }
  heap_[pos] = v;
  heap_pos_[v] = static_cast<std::int32_t>(pos);
}

Lit Solver::pick_branch() {
  // Optional random diversification.
  if (config_.random_decision_freq > 0.0) {
    const double r =
        static_cast<double>(splitmix64(rng_state_) >> 11) * 0x1.0p-53;
    if (r < config_.random_decision_freq && !heap_.empty()) {
      const std::uint32_t idx = static_cast<std::uint32_t>(
          splitmix64(rng_state_) % heap_.size());
      const std::uint32_t v = heap_[idx];
      if (var_value(v) == kUnknown)
        return Lit::make(v, phase_[v] == kFalse);
    }
  }
  while (!heap_.empty()) {
    const std::uint32_t v = heap_pop();
    if (var_value(v) == kUnknown) return Lit::make(v, phase_[v] == kFalse);
  }
  return kLitUndef;
}

// --- restarts ----------------------------------------------------------------

std::uint32_t Solver::reusable_trail_level() {
  if (!assumptions_.empty() || decision_level() == 0) return 0;
  // The restarted search redoes decisions best-activity-first with saved
  // phases, so the prefix up to the first decision that has activity at
  // most the best unassigned variable's or diverges from its saved phase
  // would be rebuilt literal for literal — keep it.
  while (!heap_.empty() && var_value(heap_[0]) != kUnknown) heap_pop();
  if (heap_.empty()) return decision_level();
  const double limit = activity_[heap_[0]];
  std::uint32_t keep = 0;
  double prev_activity = std::numeric_limits<double>::infinity();
  while (keep < decision_level()) {
    // Without assumptions every level opens with its decision literal.
    const Lit dec = trail_[trail_lim_[keep]];
    const std::uint32_t v = dec.var();
    CSAT_DCHECK(reason_[v].is_none() && level_[v] == keep + 1);
    // Strict descending-activity match: the kept decisions must be exactly
    // the sequence a fresh pick_branch would redo (best-first), or the
    // "reused" prefix silently diverges from a true restart.
    if (activity_[v] <= limit || activity_[v] >= prev_activity) break;
    if (dec != Lit::make(v, phase_[v] == kFalse)) break;
    prev_activity = activity_[v];
    ++keep;
  }
  return keep;
}

// --- clause sharing ----------------------------------------------------------

void Solver::connect_exchange(ClauseExchange* exchange, std::size_t worker_id,
                              const ClauseSharingOptions& sharing) {
  CSAT_CHECK_MSG(exchange == nullptr || proof_ == nullptr,
                 "proof emission and clause sharing are mutually exclusive "
                 "(imported clauses are not RUP-derivable from this worker's "
                 "run)");
  exchange_ = exchange;
  exchange_id_ = worker_id;
  sharing_ = sharing;
  exchange_cursor_ = {};
  export_lbd_ = sharing.max_lbd;
  adapt_lost_ = 0;
  adapt_seen_ = 0;
  shared_hashes_.clear();
}

void Solver::adapt_sharing(const ClauseExchange::DrainStats& drained) {
  adapt_lost_ += drained.lost;
  adapt_seen_ += drained.lost + drained.delivered + drained.skipped;
  if (adapt_seen_ < 256) return;  // wait for a meaningful pressure window
  // Lost tickets mean producers lapped this consumer — the ring is flooded,
  // so tighten this worker's export filter; a clean window means headroom,
  // so drift back toward the loose end of the band.
  if (adapt_lost_ * 10 >= adapt_seen_) {  // >= 10% of the window lost
    if (export_lbd_ > ClauseSharingOptions::kAdaptiveMinLbd) --export_lbd_;
  } else if (adapt_lost_ * 100 <= adapt_seen_) {  // <= 1% lost
    if (export_lbd_ < ClauseSharingOptions::kAdaptiveMaxLbd) ++export_lbd_;
  }
  adapt_lost_ = 0;
  adapt_seen_ = 0;
}

void Solver::export_clause(std::span<const Lit> lits, std::uint32_t lbd) {
  CSAT_DCHECK(exchange_ != nullptr);
  if (lbd > export_lbd_ || lits.size() > sharing_.max_size) return;
  if (shared_hashes_.size() >= kMaxSharedHashes) shared_hashes_.clear();
  if (!shared_hashes_.insert(clause_hash(lits)).second) return;
  exchange_->publish(exchange_id_, lits, lbd);
  ++stats_.exported;
}

/// Attaches one foreign clause at decision level 0: normalize against the
/// root assignment exactly like add_clause(), but keep the clause learnt
/// (with its original LBD) so database reduction can still discard it.
void Solver::import_one(std::span<const Lit> lits, std::uint32_t lbd) {
  if (!ok_) return;
  if (shared_hashes_.size() >= kMaxSharedHashes) shared_hashes_.clear();
  if (!shared_hashes_.insert(clause_hash(lits)).second) return;  // duplicate

  std::vector<Lit>& out = root_clause_;
  switch (normalize_at_root(lits, out)) {
    case RootNorm::kRedundant:
      return;
    case RootNorm::kEmpty:
      ok_ = false;
      return;
    case RootNorm::kClause:
      break;
  }
  ++stats_.imported;
  if (out.size() == 1) {
    if (value(out[0]) == kFalse)
      ok_ = false;
    else if (value(out[0]) == kUnknown)
      enqueue(out[0], Reason::none());
    return;
  }
  (void)db_.attach(out, /*learnt=*/true, std::max(lbd, 1u));
}

bool Solver::import_clauses() {
  if (exchange_ == nullptr || !ok_) return ok_;
  CSAT_CHECK_MSG(decision_level() == 0, "imports happen at level 0 only");
  const auto drained = exchange_->drain(
      exchange_cursor_, exchange_id_,
      [this](std::span<const Lit> lits, std::uint32_t lbd, std::size_t) {
        import_one(lits, lbd);
      });
  stats_.import_lost += drained.lost;
  adapt_sharing(drained);
  if (ok_ && !propagate().is_none()) ok_ = false;
  return ok_;
}

// --- main search -------------------------------------------------------------

Status Solver::solve(const Limits& limits) {
  const Status status = search(limits);
  // Storage gauges are refreshed once per solve, not in the hot loop.
  stats_.watch_bytes = db_.watch_bytes();
  stats_.watcher_relocations = db_.watcher_relocations();
  stats_.memory_bytes = memory_bytes();
  return status;
}

std::uint64_t Solver::memory_bytes() const {
  std::uint64_t total = kernel_bytes();
  total += heap_.capacity() * sizeof(std::uint32_t);
  total += heap_pos_.capacity() * sizeof(std::int32_t);
  return total;
}

Status Solver::search(const Limits& limits) {
  if (!ok_) return proved_unsat();
  SearchBudget budget(limits, stats_.conflicts, stats_.decisions);

  if (!propagate().is_none()) {
    ok_ = false;
    return proved_unsat();
  }
  if (!import_clauses()) return proved_unsat();

  restarts_.begin(stats_.conflicts);

  for (;;) {
    if (interrupted(budget)) return Status::kUnknown;
    const Conflict confl = propagate();
    if (!confl.is_none()) {
      if (!learn(confl)) return proved_unsat();
      // Budget enforcement on the conflict path too: a conflict burst
      // `continue`s here every iteration and would otherwise sail past the
      // no-conflict-path check below for unboundedly long on hard UNSAT
      // instances. Checking after the learnt clause is attached keeps the
      // state resumable and bounds the overshoot to the conflict in hand.
      if (spent(budget)) return Status::kUnknown;
      continue;
    }

    // Level-0 propagation fixpoint between restarts: a cheap opportunity to
    // drain the exchange early instead of waiting for the next restart.
    if (decision_level() == 0 && has_pending_import()) {
      if (!import_clauses()) return proved_unsat();
      continue;  // imported clauses may propagate: find the new fixpoint
    }

    if (spent(budget)) return Status::kUnknown;

    if (restarts_.due(stats_.conflicts)) {
      ++stats_.restarts;
      // Import needs level 0; plain restarts reuse the trail prefix the
      // restarted search would redo decision-for-decision.
      const std::uint32_t reuse =
          has_pending_import() ? 0 : reusable_trail_level();
      backtrack(reuse);
      if (reuse == 0) {
        if (!import_clauses()) return proved_unsat();
      } else {
        ++stats_.reused_trails;
      }
      restarts_.restarted(stats_.conflicts);
      continue;
    }

    // Assumptions are decided first, in order; a falsified assumption means
    // UNSAT under the assumption set.
    Lit next = kLitUndef;
    while (decision_level() < assumptions_.size()) {
      const Lit p = assumptions_[decision_level()];
      if (value(p) == kTrue) {
        open_level();
      } else if (value(p) == kFalse) {
        backtrack(0);
        return Status::kUnsat;
      } else {
        next = p;
        break;
      }
    }
    if (next == kLitUndef) next = pick_branch();
    if (next == kLitUndef) {
      model_.assign(num_vars(), false);
      for (std::uint32_t v = 0; v < num_vars(); ++v)
        model_[v] = var_value(v) == kTrue;
      backtrack(0);
      return Status::kSat;
    }
    decide(next);
  }
}

Status Solver::solve_assuming(std::span<const Lit> assumptions,
                              const Limits& limits) {
  CSAT_CHECK_MSG(proof_ == nullptr || assumptions.empty(),
                 "proof emission covers plain solve() only: UNSAT under "
                 "assumptions is not a refutation of the formula");
  assumptions_.assign(assumptions.begin(), assumptions.end());
  for (Lit l : assumptions_) CSAT_CHECK(l.var() < num_vars());
  const Status result = solve(limits);
  assumptions_.clear();
  return result;
}

SolveResult solve_cnf(const Cnf& formula, const SolverConfig& config,
                      const Limits& limits, ProofTracer* proof) {
  Solver solver(config);
  if (proof != nullptr) solver.set_proof(proof);
  solver.add_formula(formula);
  SolveResult r;
  r.status = solver.solve(limits);
  r.stats = solver.stats();
  if (r.status == Status::kSat) {
    r.model = solver.model();
    CSAT_CHECK_MSG(formula.satisfied_by(r.model), "solver returned invalid model");
  }
  return r;
}

}  // namespace csat::sat
