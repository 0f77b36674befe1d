#include "cnf/simplify.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"
#include "sat/proof.h"
#include "sat/watch.h"

namespace csat::cnf {

namespace {

/// Variables with more than this many occurrences are never eliminated
/// (quadratic resolvent blow-up guard).
constexpr int kBveOccurrenceLimit = 16;
/// Simplification rounds (each round runs every technique).
constexpr int kMaxRounds = 3;
/// Budget on propagation steps (literal visits during unit propagation and
/// probing BCP). Deterministic; the engine stops cleanly when spent.
constexpr std::uint64_t kMaxPropagations = 50'000'000;
/// Budget on resolution steps (subsumption subset tests and BVE resolvent
/// constructions). Deterministic.
constexpr std::uint64_t kMaxResolutions = 10'000'000;

/// Working clause: a slice of the simplifier's literal arena (sorted
/// literals) + Bloom signature + liveness. Clauses only ever shrink in
/// place, so a slice never moves; BVE resolvents are appended to the arena.
struct WorkClause {
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
  std::uint64_t signature = 0;
  bool alive = true;
};

std::uint64_t signature_of(std::span<const Lit> lits) {
  std::uint64_t s = 0;
  for (Lit l : lits) s |= 1ULL << (l.var() & 63);
  return s;
}

/// True when every literal of a occurs in b (both sorted; sa/sb are their
/// signatures).
bool subset_of(std::uint64_t sa, std::span<const Lit> a, std::uint64_t sb,
               std::span<const Lit> b) {
  if ((sa & ~sb) != 0) return false;
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

class Simplifier {
 public:
  Simplifier(const Cnf& formula, const SimplifyParams& params)
      : params_(params),
        num_vars_(formula.num_vars()),
        assign_(formula.num_vars(), -1),
        occ_dirty_(2 * static_cast<std::size_t>(formula.num_vars()), 0),
        touched_flag_(formula.num_vars(), 0),
        probe_mark_(formula.num_vars(), 0),
        probe_val_(formula.num_vars(), 0) {
    // Occurrence slabs sized by the input's literal histogram (an upper
    // bound: normalization only drops literals), so loading the formula
    // relocates no slab.
    std::vector<std::uint32_t> counts(occ_dirty_.size(), 0);
    for (std::size_t i = 0; i < formula.num_clauses(); ++i)
      for (Lit l : formula.clause(i)) ++counts[l.x];
    occ_.reserve_lists(counts);
    lits_.reserve(formula.num_literals());
    clauses_.reserve(formula.num_clauses());
    in_sub_queue_.reserve(formula.num_clauses());
    eliminated_.add_vars(num_vars_);
    for (std::size_t i = 0; i < formula.num_clauses(); ++i)
      if (!add_clause(formula.clause(i))) break;
  }

  SimplifyResult run() {
    // Tracing starts here, not in the constructor: the original clauses are
    // the proof's premise set and must not appear as derivation steps.
    tracing_ = params_.proof != nullptr;
    propagate_units();
    for (int round = 0; round < kMaxRounds && !unsat_ && !exhausted_;
         ++round) {
      // Pure-literal and BVE sweeps only look at variables whose
      // neighbourhood changed: everything in round 0, the touched set after.
      round_vars_.clear();
      if (round == 0) {
        round_vars_.reserve(num_vars_);
        for (std::uint32_t v = 0; v < num_vars_; ++v) round_vars_.push_back(v);
      } else {
        round_vars_.swap(touched_);
        for (std::uint32_t v : round_vars_) touched_flag_[v] = 0;
      }
      bool changed = propagate_units();
      if (unsat_ || exhausted_) break;
      changed |= eliminate_pures();
      changed |= probe();
      changed |= subsume();
      changed |= eliminate_variables();
      if (!changed) break;
    }
    return finish();
  }

 private:
  // --- budgets --------------------------------------------------------------

  void check_clock() {
    if (++clock_ticks_ % 4096 != 0) return;
    if (watch_.seconds() > params_.max_seconds) exhausted_ = true;
  }

  void charge_props(std::uint64_t n) {
    stats_.propagations += n;
    if (stats_.propagations > kMaxPropagations) exhausted_ = true;
    check_clock();
  }

  void charge_res(std::uint64_t n) {
    stats_.resolutions += n;
    if (stats_.resolutions > kMaxResolutions) exhausted_ = true;
    check_clock();
  }

  // --- worklists ------------------------------------------------------------

  void touch_var(std::uint32_t v) {
    if (touched_flag_[v]) return;
    touched_flag_[v] = 1;
    touched_.push_back(v);
  }

  void enqueue_subsumption(std::uint32_t idx) {
    if (in_sub_queue_[idx]) return;
    in_sub_queue_[idx] = 1;
    sub_queue_.push_back(idx);
  }

  // --- proof emission ---------------------------------------------------------
  //
  // Every mutation of the live clause set is mirrored as DRAT add/delete
  // steps in the *input* variable space (tracing stops before remapping).
  // The invariant that makes the pure-literal RAT steps checkable is that
  // the checker's active non-unit clauses are exactly the live clauses
  // here: adds are emitted in the stored, normalized form, and every kill
  // or in-place rewrite emits the matching delete. Unit clauses are the
  // one exception — the checker ignores unit deletions (its root
  // assignment only grows), which matches a fixed variable never becoming
  // pure-eligible again.

  void proof_add(std::span<const Lit> lits) {
    if (tracing_) params_.proof->add(lits);
  }
  void proof_add1(Lit l) { proof_add(std::span<const Lit>(&l, 1)); }
  void proof_add2(Lit a, Lit b) {
    const Lit pair[2] = {a, b};
    proof_add(pair);
  }
  void proof_delete(std::span<const Lit> lits) {
    if (tracing_) params_.proof->remove(lits);
  }
  void proof_delete2(Lit a, Lit b) {
    const Lit pair[2] = {a, b};
    proof_delete(pair);
  }

  // --- clause management ----------------------------------------------------

  std::span<Lit> lits(const WorkClause& c) {
    return {lits_.data() + c.offset, c.size};
  }

  /// Normalizes `in` straight onto the arena's tail and keeps it as a new
  /// clause, or rolls the tail back. `in` must not point into the arena.
  bool add_clause(std::span<const Lit> in) {
    const std::size_t offset = lits_.size();
    for (Lit l : in) {
      const int v = assign_[l.var()];
      if (v == static_cast<int>(!l.sign())) {  // satisfied
        lits_.resize(offset);
        return true;
      }
      if (v == static_cast<int>(l.sign())) continue;  // falsified lit
      lits_.push_back(l);
    }
    const auto first = lits_.begin() + static_cast<std::ptrdiff_t>(offset);
    std::sort(first, lits_.end());
    lits_.erase(std::unique(first, lits_.end()), lits_.end());
    const std::span<const Lit> c(lits_.data() + offset, lits_.size() - offset);
    for (std::size_t i = 0; i + 1 < c.size(); ++i)
      if (c[i] == !c[i + 1]) {  // tautology
        lits_.resize(offset);
        return true;
      }
    if (c.empty()) {
      unsat_ = true;
      return false;
    }
    // A unit is emitted now too, not when the pending unit is fixed: the
    // only traced caller is BVE, whose parent clauses (the RUP witnesses)
    // are gone by the time propagate_units runs.
    proof_add(c);
    if (c.size() == 1) {
      pending_units_.push_back(c[0]);
      lits_.resize(offset);
      return true;
    }
    const auto idx = static_cast<std::uint32_t>(clauses_.size());
    for (Lit l : c) {
      occ_.push(l.x, idx);
      touch_var(l.var());
    }
    clauses_.push_back({static_cast<std::uint32_t>(offset),
                        static_cast<std::uint32_t>(c.size()), signature_of(c),
                        true});
    in_sub_queue_.push_back(0);
    enqueue_subsumption(idx);
    return true;
  }

  void kill_clause(std::uint32_t idx) {
    WorkClause& c = clauses_[idx];
    if (!c.alive) return;
    if (c.size >= 2) proof_delete(lits(c));
    c.alive = false;
    ++stats_.removed_clauses;
    for (Lit l : lits(c)) {
      ++occ_dirty_[l.x];
      touch_var(l.var());
    }
  }

  /// Exact live occurrences of `l`: entries whose clause is alive and still
  /// contains `l`. Compacts in place, order preserved, when stale entries
  /// have accumulated. The span is invalidated by any occurrence push
  /// (add_clause, substitution), which may relocate the pool: copy first
  /// when the loop body can add occurrences.
  std::span<const std::uint32_t> occ(Lit l) {
    if (occ_dirty_[l.x] > 0) compact_occ(l);
    return occ_[l.x];
  }

  void compact_occ(Lit l) {
    std::uint32_t keep = 0;
    const std::span<std::uint32_t> list = occ_[l.x];
    for (std::uint32_t idx : list) {
      const WorkClause& c = clauses_[idx];
      const std::span<const Lit> cl = lits(c);
      if (c.alive && std::binary_search(cl.begin(), cl.end(), l))
        list[keep++] = idx;
    }
    occ_.set_size(l.x, keep);
    occ_dirty_[l.x] = 0;
  }

  /// Drops every occurrence of `l` (its variable left the formula).
  void clear_occ(Lit l) {
    occ_.set_size(l.x, 0);
    occ_dirty_[l.x] = 0;
  }

  /// Removes `l` from clause `c` in place (order preserved).
  void remove_lit(WorkClause& c, Lit l) {
    const std::span<Lit> cl = lits(c);
    c.size = static_cast<std::uint32_t>(std::remove(cl.begin(), cl.end(), l) -
                                        cl.begin());
    c.signature = signature_of(lits(c));
  }

  void snapshot_for_proof(const WorkClause& c) {
    if (tracing_) proof_old_.assign(lits(c).begin(), lits(c).end());
  }

  // --- unit propagation -------------------------------------------------------

  /// Makes `l` true. Returns true when the variable was newly assigned.
  /// Stats are attributed by the caller (unit/pure/failed buckets); the
  /// reconstruction entry is pushed here so no fix can be forgotten.
  bool fix_literal(Lit l) {
    const std::uint32_t v = l.var();
    if (assign_[v] != -1) {
      if (assign_[v] == static_cast<int>(l.sign())) unsat_ = true;
      return false;
    }
    assign_[v] = l.sign() ? 0 : 1;
    stack_.push_back({SimplifyResult::Reconstruction::Kind::kFixed, v, l});
    // The unit step itself. RUP for propagated and failed literals (the
    // deriving clauses are still present), RAT on l for pure literals (no
    // active clause contains !l). Both-phase probe lifts are covered by
    // helper binaries the probe loop emits just before calling here.
    proof_add1(l);
    // Satisfied clauses die; falsified literals shrink clauses.
    // Neither loop adds occurrences, so both walk the lists in place.
    const std::span<const std::uint32_t> sat = occ(l);
    charge_props(sat.size() + 1);
    for (std::uint32_t idx : sat) kill_clause(idx);
    const std::span<const std::uint32_t> shrink = occ(!l);
    charge_props(shrink.size() + 1);
    for (std::uint32_t idx : shrink) {
      WorkClause& c = clauses_[idx];
      if (!c.alive) continue;
      snapshot_for_proof(c);
      remove_lit(c, !l);
      for (Lit m : lits(c)) touch_var(m.var());
      if (c.size == 0) {
        unsat_ = true;
        return true;
      }
      // The shrunk clause is RUP against {old clause, unit l}; the old
      // form is deleted so a stale copy can't block a later RAT step.
      proof_add(lits(c));
      proof_delete(proof_old_);
      if (c.size == 1) {
        pending_units_.push_back(lits(c)[0]);
        kill_clause(idx);
      } else {
        enqueue_subsumption(idx);
      }
    }
    // The variable is gone from the formula for good.
    clear_occ(l);
    clear_occ(!l);
    touch_var(v);
    return true;
  }

  /// Drains the pending-unit queue to a fixpoint. Runs to completion even
  /// when a budget is exhausted: once any fix has weakened the formula, the
  /// queued consequences must be applied for the result to stay sound.
  bool propagate_units() {
    bool changed = false;
    while (!pending_units_.empty() && !unsat_) {
      const Lit l = pending_units_.back();
      pending_units_.pop_back();
      if (fix_literal(l)) {
        ++stats_.fixed_units;
        changed = true;
      }
    }
    return changed;
  }

  // --- pure literals ----------------------------------------------------------

  bool eliminate_pures() {
    bool changed = false;
    for (std::uint32_t v : round_vars_) {
      if (unsat_ || exhausted_) break;
      if (assign_[v] != -1) continue;
      const bool has_pos = !occ(Lit::make(v, false)).empty();
      const bool has_neg = !occ(Lit::make(v, true)).empty();
      if (has_pos == has_neg) continue;  // both phases, or unconstrained
      const Lit pure = Lit::make(v, !has_pos);
      if (fix_literal(pure)) ++stats_.pure_literals;
      propagate_units();
      changed = true;
    }
    return changed;
  }

  // --- failed-literal probing --------------------------------------------------

  /// BCP under the assumption `root`, on top of the (empty) global
  /// assignment, using a stamp-versioned scratch valuation. Returns false
  /// when a budget cut the probe short (its trail must be discarded);
  /// otherwise `conflict` reports whether the assumption failed.
  bool bcp_probe(Lit root, bool& conflict) {
    conflict = false;
    ++probe_stamp_;
    probe_trail_.clear();
    probe_mark_[root.var()] = probe_stamp_;
    probe_val_[root.var()] = root.sign() ? 0 : 1;
    probe_trail_.push_back(root);
    for (std::size_t head = 0; head < probe_trail_.size(); ++head) {
      const Lit a = probe_trail_[head];
      const std::span<const std::uint32_t> watch = occ(!a);
      charge_props(watch.size() + 1);
      if (exhausted_) return false;
      for (std::uint32_t idx : watch) {
        bool satisfied = false;
        int unknown = 0;
        Lit unit{};
        for (Lit l : lits(clauses_[idx])) {
          if (probe_mark_[l.var()] == probe_stamp_) {
            if (probe_val_[l.var()] == static_cast<std::uint8_t>(!l.sign())) {
              satisfied = true;
              break;
            }
            continue;  // falsified literal
          }
          ++unknown;
          unit = l;
        }
        if (satisfied) continue;
        if (unknown == 0) {
          conflict = true;
          return true;
        }
        if (unknown == 1) {
          probe_mark_[unit.var()] = probe_stamp_;
          probe_val_[unit.var()] = unit.sign() ? 0 : 1;
          probe_trail_.push_back(unit);
        }
      }
    }
    return true;
  }

  bool probe() {
    bool changed = false;
    std::vector<Lit> fixes;
    for (std::uint32_t v = 0; v < num_vars_ && !unsat_ && !exhausted_; ++v) {
      if (assign_[v] != -1) continue;
      // Variables missing a phase are pure (or unconstrained), not worth
      // probing: assuming the absent phase propagates nothing.
      if (occ(Lit::make(v, false)).empty() || occ(Lit::make(v, true)).empty())
        continue;
      ++stats_.probed_literals;

      bool conflict = false;
      if (!bcp_probe(Lit::make(v, false), conflict)) break;
      if (conflict) {
        ++stats_.failed_literals;
        fix_literal(Lit::make(v, true));
        propagate_units();
        changed = true;
        continue;
      }
      pos_implied_.clear();
      for (Lit l : probe_trail_)
        pos_implied_.emplace_back(l.var(), !l.sign());

      if (!bcp_probe(Lit::make(v, true), conflict)) break;
      if (conflict) {
        ++stats_.failed_literals;
        fix_literal(Lit::make(v, false));
        propagate_units();
        changed = true;
        continue;
      }

      // Intersect the two implication sets. A variable assigned the same
      // value by both phases is fixed; opposite values mean equivalence
      // with the probed variable.
      fixes.clear();
      equivs_.clear();
      for (const auto& [m, b1] : pos_implied_) {
        if (m == v || probe_mark_[m] != probe_stamp_) continue;
        const bool b2 = probe_val_[m] != 0;
        if (b1 == b2) {
          fixes.push_back(Lit::make(m, !b1));
        } else {
          equivs_.emplace_back(m, Lit::make(v, !b1));
        }
      }
      for (const auto& [m, rep] : equivs_) {
        if (assign_[m] != -1 || assign_[rep.var()] != -1) continue;
        substitute_var(m, rep);
        changed = true;
        if (unsat_ || exhausted_) break;
      }
      for (Lit f : fixes) {
        if (unsat_ || assign_[f.var()] != -1) continue;
        ++stats_.failed_literals;
        // f alone is not RUP (deriving it needs a case split on v), so
        // bridge with two helper binaries, each RUP via one probe trail:
        // (!v or f) from the v-true phase, (v or f) from the v-false
        // phase. Resolving them yields the unit; then they are retracted
        // so they can't shadow a later pure/RAT step on v.
        proof_add2(Lit::make(v, true), f);
        proof_add2(Lit::make(v, false), f);
        fix_literal(f);
        proof_delete2(Lit::make(v, true), f);
        proof_delete2(Lit::make(v, false), f);
        changed = true;
      }
      propagate_units();
    }
    return changed;
  }

  /// Replaces every occurrence of variable `m` by the equivalent literal
  /// `rep` (value(m) == value(rep)), removing `m` from the formula. The
  /// equivalence is pushed on the reconstruction stack first, so replay
  /// recovers m's value from rep's.
  void substitute_var(std::uint32_t m, Lit rep) {
    stack_.push_back(
        {SimplifyResult::Reconstruction::Kind::kEquivalent, m, rep});
    ++stats_.equivalent_literals;
    // The two equivalence binaries (!m or rep) and (m or !rep). Each is RUP
    // via one phase of the probe trail that discovered the equivalence (the
    // caller emits these before anything mutates the clause set). Every
    // rewritten clause below is then RUP against {its old form, one of
    // these binaries}; they are retracted at the end so m's ghost
    // occurrences can't block a later RAT step.
    proof_add2(Lit::make(m, true), rep);
    proof_add2(Lit::make(m, false), !rep);
    for (const bool sgn : {false, true}) {
      const Lit s = Lit::make(m, sgn);
      const Lit r = rep ^ sgn;
      // Copied: the loop adds occurrences of r, which may move the pool.
      const std::span<const std::uint32_t> list = occ(s);
      scratch_.assign(list.begin(), list.end());
      charge_props(scratch_.size() + 1);
      for (std::uint32_t idx : scratch_) {
        WorkClause& c = clauses_[idx];
        if (!c.alive) continue;
        std::span<Lit> cl = lits(c);
        if (std::binary_search(cl.begin(), cl.end(), !r)) {
          kill_clause(idx);  // clause gains r alongside !r: tautology
          continue;
        }
        const bool had_r = std::binary_search(cl.begin(), cl.end(), r);
        snapshot_for_proof(c);
        *std::find(cl.begin(), cl.end(), s) = r;
        std::sort(cl.begin(), cl.end());
        if (had_r)
          c.size = static_cast<std::uint32_t>(
              std::unique(cl.begin(), cl.end()) - cl.begin());
        cl = lits(c);
        c.signature = signature_of(cl);
        proof_add(cl);
        proof_delete(proof_old_);
        for (Lit l : cl) touch_var(l.var());
        if (c.size == 1) {
          pending_units_.push_back(cl[0]);
          kill_clause(idx);
          continue;
        }
        if (!had_r) occ_.push(r.x, idx);
        enqueue_subsumption(idx);
      }
      clear_occ(s);
    }
    proof_delete2(Lit::make(m, true), rep);
    proof_delete2(Lit::make(m, false), !rep);
    touch_var(m);
    touch_var(rep.var());
    propagate_units();
  }

  // --- subsumption -------------------------------------------------------------

  bool subset_of(const WorkClause& a, const WorkClause& b) {
    return cnf::subset_of(a.signature, lits(a), b.signature, lits(b));
  }

  bool subsume() {
    bool changed = false;
    while (!sub_queue_.empty() && !unsat_ && !exhausted_) {
      const std::uint32_t ci = sub_queue_.back();
      sub_queue_.pop_back();
      in_sub_queue_[ci] = 0;
      if (!clauses_[ci].alive) continue;

      // Backward: is c itself subsumed by an existing clause? Any subsumer
      // is made of c's literals, so scanning their occurrence lists finds it.
      {
        const WorkClause& c = clauses_[ci];
        bool killed = false;
        for (Lit l : lits(c)) {
          for (std::uint32_t di : occ(l)) {
            if (di == ci) continue;
            const WorkClause& d = clauses_[di];
            charge_res(1);
            if (d.size <= c.size && subset_of(d, c)) {
              kill_clause(ci);
              ++stats_.subsumed_clauses;
              changed = true;
              killed = true;
              break;
            }
          }
          if (killed || exhausted_) break;
        }
        if (killed) continue;
        if (exhausted_) break;
      }

      // Forward: c subsumes supersets, found through the occurrence list of
      // its least-occurring literal. The backward pass has just compacted
      // every list of c, so the slab lengths are live counts.
      Lit best = lits(clauses_[ci])[0];
      for (Lit l : lits(clauses_[ci]))
        if (occ_.head(l.x).size < occ_.head(best.x).size) best = l;
      for (std::uint32_t di : occ(best)) {
        if (di == ci || !clauses_[di].alive) continue;
        charge_res(1);
        if (clauses_[ci].size > clauses_[di].size) continue;
        if (subset_of(clauses_[ci], clauses_[di])) {
          kill_clause(di);
          ++stats_.subsumed_clauses;
          changed = true;
        }
      }
      if (exhausted_) break;

      // Self-subsuming resolution: c with one literal flipped subsumes d
      // => remove the flipped literal from d. Flipping a literal of a
      // sorted, tautology-free clause keeps it sorted (no other literal has
      // its variable) and keeps its variable signature, so the flipped
      // copy needs neither a sort nor a new signature.
      flipped_.assign(lits(clauses_[ci]).begin(), lits(clauses_[ci]).end());
      const std::uint64_t flipped_sig = clauses_[ci].signature;
      for (std::size_t k = 0; k < flipped_.size(); ++k) {
        if (!clauses_[ci].alive || unsat_ || exhausted_) break;
        const Lit flip = flipped_[k];
        flipped_[k] = !flip;
        // No occurrence is added below (only strengthening), so the list
        // is walked in place.
        for (std::uint32_t di : occ(!flip)) {
          if (di == ci || !clauses_[di].alive) continue;
          charge_res(1);
          WorkClause& d = clauses_[di];
          if (flipped_.size() > d.size) continue;
          if (!cnf::subset_of(flipped_sig, flipped_, d.signature, lits(d)))
            continue;
          snapshot_for_proof(d);
          remove_lit(d, !flip);
          // The strengthened clause is the resolvent of c and d on `flip`;
          // both parents are still present, so it is RUP.
          proof_add(lits(d));
          proof_delete(proof_old_);
          ++occ_dirty_[(!flip).x];
          ++stats_.strengthened_clauses;
          for (Lit l : lits(d)) touch_var(l.var());
          touch_var(flip.var());
          changed = true;
          if (d.size == 1) {
            pending_units_.push_back(lits(d)[0]);
            kill_clause(di);
          } else if (d.size == 0) {
            unsat_ = true;
            break;
          } else {
            enqueue_subsumption(di);
          }
        }
        flipped_[k] = flip;
      }
      propagate_units();
    }
    propagate_units();
    return changed;
  }

  // --- bounded variable elimination ---------------------------------------------

  bool eliminate_variables() {
    bool changed = false;
    for (std::uint32_t v : round_vars_) {
      if (unsat_ || exhausted_) break;
      if (assign_[v] != -1) continue;
      // Compacting the negative list touches only its own slab, so `pos`
      // stays valid.
      const std::span<const std::uint32_t> pos = occ(Lit::make(v, false));
      const std::span<const std::uint32_t> neg = occ(Lit::make(v, true));
      if (pos.empty() && neg.empty()) continue;
      const int occurrences = static_cast<int>(pos.size() + neg.size());
      if (occurrences > kBveOccurrenceLimit) continue;
      // Copied: adding the resolvents appends occurrences, which may move
      // the pool.
      bve_pos_.assign(pos.begin(), pos.end());
      bve_neg_.assign(neg.begin(), neg.end());

      // Build non-tautological resolvents, back to back in one buffer.
      resolvent_lits_.clear();
      resolvent_ends_.clear();
      bool too_many = false;
      for (std::uint32_t pi : bve_pos_) {
        for (std::uint32_t ni : bve_neg_) {
          charge_res(1);
          const std::size_t start = resolvent_lits_.size();
          for (Lit l : lits(clauses_[pi]))
            if (l.var() != v) resolvent_lits_.push_back(l);
          for (Lit l : lits(clauses_[ni]))
            if (l.var() != v) resolvent_lits_.push_back(l);
          const auto first =
              resolvent_lits_.begin() + static_cast<std::ptrdiff_t>(start);
          std::sort(first, resolvent_lits_.end());
          resolvent_lits_.erase(std::unique(first, resolvent_lits_.end()),
                                resolvent_lits_.end());
          bool taut = false;
          for (std::size_t i = start; i + 1 < resolvent_lits_.size(); ++i)
            if (resolvent_lits_[i] == !resolvent_lits_[i + 1]) {
              taut = true;
              break;
            }
          if (taut)
            resolvent_lits_.resize(start);
          else
            resolvent_ends_.push_back(resolvent_lits_.size());
          if (static_cast<int>(resolvent_ends_.size()) > occurrences) {
            too_many = true;
            break;
          }
        }
        if (too_many) break;
      }
      if (too_many || exhausted_) continue;

      // Record the variable's clauses for model reconstruction, then swap
      // them for the resolvents (NiVER's non-increasing elimination).
      const auto first_clause =
          static_cast<std::uint32_t>(eliminated_.num_clauses());
      for (std::uint32_t idx : bve_pos_)
        eliminated_.add_clause(lits(clauses_[idx]));
      for (std::uint32_t idx : bve_neg_)
        eliminated_.add_clause(lits(clauses_[idx]));
      stack_.push_back({SimplifyResult::Reconstruction::Kind::kEliminated, v,
                        Lit{}, first_clause,
                        static_cast<std::uint32_t>(eliminated_.num_clauses())});
      // Resolvents go in before the parents die: each resolvent's RUP
      // check in proof mode resolves against the still-present parents.
      // (The final clause set is the same either way — resolvents never
      // mention v, so the pos/neg snapshots stay exact.)
      std::size_t start = 0;
      for (const std::size_t end : resolvent_ends_) {
        if (!add_clause(std::span<const Lit>(resolvent_lits_.data() + start,
                                             end - start)))
          break;
        start = end;
      }
      for (std::uint32_t idx : bve_pos_) kill_clause(idx);
      for (std::uint32_t idx : bve_neg_) kill_clause(idx);
      ++stats_.eliminated_vars;
      propagate_units();
      changed = true;
    }
    return changed;
  }

  // --- output ------------------------------------------------------------------

  SimplifyResult finish() {
    SimplifyResult result;
    result.unsat = unsat_;
    result.original_vars = num_vars_;
    result.stack = std::move(stack_);
    result.eliminated = std::move(eliminated_);
    result.var_map.assign(num_vars_, SimplifyResult::kUnmapped);
    stats_.budget_exhausted = exhausted_;

    if (unsat_) {
      // Cap the proof with the empty clause. Every unsat_ site has already
      // put the checker in root conflict (two opposing units, or a clause
      // whose literals are all falsified by emitted units), so this final
      // step always verifies.
      proof_add(std::span<const Lit>{});
      // Canonical unsatisfiable formula: zero variables, one empty clause.
      // (The old contradictory-unit encoding emitted out-of-range literals
      // for 0-variable inputs.)
      result.cnf.add_clause(std::span<const Lit>{});
      stats_.seconds = watch_.seconds();
      result.stats = stats_;
      return result;
    }

    // propagate_units runs to its fixpoint even past a budget, so the live
    // clauses are the whole output. Their variables are compacted onto a
    // dense range.
    CSAT_DCHECK(pending_units_.empty());
    std::vector<bool> seen(num_vars_, false);
    for (const WorkClause& c : clauses_)
      if (c.alive)
        for (Lit l : lits(c)) seen[l.var()] = true;

    std::uint32_t next = 0;
    for (std::uint32_t v = 0; v < num_vars_; ++v) {
      if (!seen[v]) continue;
      result.var_map[v] = next++;
      result.inverse_map.push_back(v);
    }
    result.cnf.add_vars(next);
    std::vector<Lit> mapped;
    for (const WorkClause& c : clauses_) {
      if (!c.alive) continue;
      mapped.clear();
      for (Lit l : lits(c))
        mapped.push_back(Lit::make(result.var_map[l.var()], l.sign()));
      result.cnf.add_clause(mapped);
    }
    stats_.seconds = watch_.seconds();
    result.stats = stats_;
    return result;
  }

  SimplifyParams params_;
  std::uint32_t num_vars_;
  SimplifyStats stats_;
  bool unsat_ = false;
  bool exhausted_ = false;
  bool tracing_ = false;        // params_.proof set and run() has started
  std::vector<Lit> proof_old_;  // pre-rewrite snapshot for add/delete pairs
  Stopwatch watch_;
  std::uint64_t clock_ticks_ = 0;
  std::vector<int> assign_;  // -1 unknown, 0 false, 1 true
  std::vector<Lit> lits_;    // literal arena: every WorkClause is a slice
  std::vector<WorkClause> clauses_;
  // Occurrence lists by literal: one pool of per-literal slabs. Entries are
  // appended when a clause gains the literal; removals (clause death,
  // strengthening past the literal) only bump the literal's dirty count,
  // and occ() compacts lazily, so a removal costs O(1) amortized.
  csat::sat::FlatLists<std::uint32_t> occ_;
  std::vector<std::uint32_t> occ_dirty_;
  std::vector<Lit> pending_units_;
  std::vector<SimplifyResult::Reconstruction> stack_;
  Cnf eliminated_;  // SimplifyResult::eliminated, filled by BVE
  // Worklists.
  std::vector<std::uint8_t> touched_flag_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> round_vars_;
  std::vector<std::uint32_t> sub_queue_;
  std::vector<std::uint8_t> in_sub_queue_;
  std::vector<std::uint32_t> scratch_;
  // Reused buffers: self-subsumption's flipped clause, BVE's occurrence
  // snapshots and its resolvents (back to back; resolvent_ends_[i] is one
  // past resolvent i).
  std::vector<Lit> flipped_;
  std::vector<std::uint32_t> bve_pos_;
  std::vector<std::uint32_t> bve_neg_;
  std::vector<Lit> resolvent_lits_;
  std::vector<std::size_t> resolvent_ends_;
  // Probing scratch (stamp-versioned so probes never pay an O(vars) reset).
  std::uint32_t probe_stamp_ = 0;
  std::vector<std::uint32_t> probe_mark_;
  std::vector<std::uint8_t> probe_val_;
  std::vector<Lit> probe_trail_;
  std::vector<std::pair<std::uint32_t, bool>> pos_implied_;
  std::vector<std::pair<std::uint32_t, Lit>> equivs_;
};

}  // namespace

std::vector<bool> SimplifyResult::extend_model(std::vector<bool> model) const {
  CSAT_CHECK_MSG(model.size() >= cnf.num_vars(),
                 "simplify: model does not cover the simplified formula");
  std::vector<bool> full(original_vars, false);
  for (std::size_t d = 0; d < inverse_map.size(); ++d)
    full[inverse_map[d]] = model[d];
  // Replay the reconstruction stack newest-first: each entry's value only
  // depends on variables that survived or were recorded later.
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    switch (it->kind) {
      case Reconstruction::Kind::kFixed:
        full[it->var] = !it->binding.sign();
        break;
      case Reconstruction::Kind::kEquivalent:
        full[it->var] = full[it->binding.var()] != it->binding.sign();
        break;
      case Reconstruction::Kind::kEliminated: {
        bool value = false;
        bool forced = false;
        for (std::uint32_t k = it->first_clause; k < it->last_clause; ++k) {
          bool satisfied_without_v = false;
          Lit v_lit = Lit::make(it->var, false);
          for (Lit l : eliminated.clause(k)) {
            if (l.var() == it->var) {
              v_lit = l;
              continue;
            }
            if (full[l.var()] != l.sign()) {
              satisfied_without_v = true;
              break;
            }
          }
          if (!satisfied_without_v) {
            const bool needed = !v_lit.sign();
            CSAT_CHECK_MSG(!forced || value == needed,
                           "simplify: inconsistent model reconstruction");
            value = needed;
            forced = true;
          }
        }
        full[it->var] = forced ? value : false;
        break;
      }
    }
  }
  return full;
}

SimplifyResult simplify(const Cnf& formula, const SimplifyParams& params) {
  return Simplifier(formula, params).run();
}

}  // namespace csat::cnf
