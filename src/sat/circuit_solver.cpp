/// \file circuit_solver.cpp
/// Circuit-native CDCL search over AIG nodes. See circuit_solver.h for the
/// data model (implicit gate clauses C1/C2/C3, justification frontier, goal
/// clause) and the SAT exit condition this file enforces.

#include "sat/circuit_solver.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "aig/simulate.h"
#include "common/check.h"
#include "common/rng.h"

namespace csat::sat {

namespace {

/// Sentinel returned by pick_decision when the search is complete.
constexpr Lit kNoLit{0xFFFFFFFFu};

/// 64-bit random pattern words per PI for the phase-init simulation.
constexpr int kPhaseSimWords = 4;

}  // namespace

CircuitSolver::CircuitSolver(CircuitSolverConfig config)
    : Cdcl(config), config_(config) {}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

void CircuitSolver::load(const aig::Aig& g) {
  CSAT_CHECK_MSG(value_.empty(), "CircuitSolver::load() is once per solver");
  num_nodes_ = g.num_nodes();
  const std::size_t n = num_nodes_;
  resize_vars(n);
  in_frontier_.assign(n, 0);
  is_gate_.assign(n, 0);
  fanin0_.assign(n, Lit{});
  fanin1_.assign(n, Lit{});
  pi_nodes_ = g.pis();

  // Flatten the live PO cone: aig::Lit and cnf::Lit share the
  // (node << 1) | complement encoding, so fanins transfer by raw value.
  const std::vector<std::uint32_t> live = g.live_ands();
  for (const std::uint32_t node : live) {
    is_gate_[node] = 1;
    fanin0_[node] = Lit(g.fanin0(node).raw);
    fanin1_[node] = Lit(g.fanin1(node).raw);
  }

  // CSR fanout lists over live gates (count, prefix-sum, fill).
  fanout_off_.assign(n + 1, 0);
  for (const std::uint32_t node : live) {
    ++fanout_off_[fanin0_[node].var() + 1];
    ++fanout_off_[fanin1_[node].var() + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) fanout_off_[i] += fanout_off_[i - 1];
  fanout_.assign(fanout_off_[n], 0);
  std::vector<std::uint32_t> cursor(fanout_off_.begin(),
                                    fanout_off_.end() - 1);
  for (const std::uint32_t node : live) {
    fanout_[cursor[fanin0_[node].var()]++] = node;
    fanout_[cursor[fanin1_[node].var()]++] = node;
  }

  // Phase initialization: majority vote over random-pattern signatures.
  if (!pi_nodes_.empty()) {
    Rng rng(config_.seed);
    std::vector<std::uint64_t> pi_words(pi_nodes_.size());
    std::vector<std::uint32_t> ones(n, 0);
    for (int w = 0; w < kPhaseSimWords; ++w) {
      for (auto& word : pi_words) word = rng.next_u64();
      const std::vector<std::uint64_t> sim = aig::simulate_words(g, pi_words);
      for (std::size_t i = 0; i < n; ++i)
        ones[i] += static_cast<std::uint32_t>(std::popcount(sim[i]));
    }
    const auto half = static_cast<std::uint32_t>(kPhaseSimWords) * 32u;
    for (std::size_t i = 0; i < n; ++i)
      phase_[i] = ones[i] >= half ? kTrue : kFalse;
    phase_[0] = kFalse;
  }

  // The constant node is FALSE at the root.
  enqueue(Lit::make(0, true), Reason::none());

  // Goal "some PO is 1", mirroring cnf::tseitin_encode's goal semantics.
  for (const aig::Lit po : g.pos()) {
    if (po.node() == 0) {
      if (po.is_compl()) {
        forced_sat_ = true;  // constant-TRUE output
        const_true_po_ = true;
      }
      continue;  // constant-FALSE outputs contribute nothing
    }
    goal_lits_.push_back(Lit(po.raw));
  }
  std::sort(goal_lits_.begin(), goal_lits_.end());
  goal_lits_.erase(std::unique(goal_lits_.begin(), goal_lits_.end()),
                   goal_lits_.end());
  for (std::size_t i = 0; i + 1 < goal_lits_.size(); ++i)
    if (goal_lits_[i + 1].x == (goal_lits_[i].x ^ 1u))
      forced_sat_ = true;  // tautological PO pair (x and !x)
  if (!forced_sat_) {
    if (goal_lits_.empty()) {
      ok_ = false;  // every output is constant FALSE
    } else if (goal_lits_.size() == 1) {
      enqueue(goal_lits_[0], Reason::none());
    } else {
      (void)db_.attach(goal_lits_, /*learnt=*/false, /*lbd=*/0);
    }
  }
}

// ---------------------------------------------------------------------------
// Assignment and propagation
// ---------------------------------------------------------------------------

Conflict CircuitSolver::conflict_found(Conflict c) {
  // Every literal between a propagation head and the trail end was enqueued
  // at the current decision level (each decision starts from a fixpoint),
  // so the coming non-chronological backtrack unassigns all of them and
  // parking the heads at the trail end is safe.
  bin_qhead_ = gate_qhead_ = qhead_ = trail_.size();
  return c;
}

Conflict CircuitSolver::eval_gate(std::uint32_t n) {
  const Lit g = Lit::make(n, false);
  const Lit a = fanin0_[n];
  const Lit b = fanin1_[n];
  const std::uint8_t vg = var_value(n);
  const std::uint8_t va = value(a);
  const std::uint8_t vb = value(b);
  if (vg == kTrue) {
    // C1 = (!g, a), C2 = (!g, b): a true gate forces both fanins.
    if (va == kFalse) return Conflict::gate(kClauseRefGateC1, n);
    if (vb == kFalse) return Conflict::gate(kClauseRefGateC2, n);
    if (va == kUnknown) {
      enqueue(a, Reason::gate(kClauseRefGateC1, n));
      ++stats_.gate_propagations;
    }
    // Re-read b: with a degenerate gate (fanin0 and fanin1 over the same
    // node) the enqueue above may have assigned it.
    if (value(b) == kUnknown) {
      enqueue(b, Reason::gate(kClauseRefGateC2, n));
      ++stats_.gate_propagations;
    }
    return {};
  }
  if (vg == kFalse) {
    // C3 = (g, !a, !b): a false gate with one true fanin forces the other
    // fanin false; two true fanins falsify C3.
    if (va == kTrue && vb == kTrue) return Conflict::gate(kClauseRefGateC3, n);
    if (va == kTrue && vb == kUnknown) {
      enqueue(!b, Reason::gate(kClauseRefGateC3, n));
      ++stats_.gate_propagations;
    } else if (vb == kTrue && va == kUnknown) {
      enqueue(!a, Reason::gate(kClauseRefGateC3, n));
      ++stats_.gate_propagations;
    }
    return {};
  }
  // Gate unassigned: backward C1/C2 (false fanin kills the gate) or forward
  // C3 (two true fanins force it).
  if (va == kFalse) {
    enqueue(!g, Reason::gate(kClauseRefGateC1, n));
    ++stats_.gate_propagations;
  } else if (vb == kFalse) {
    enqueue(!g, Reason::gate(kClauseRefGateC2, n));
    ++stats_.gate_propagations;
  } else if (va == kTrue && vb == kTrue) {
    enqueue(g, Reason::gate(kClauseRefGateC3, n));
    ++stats_.gate_propagations;
  }
  return {};
}

Conflict CircuitSolver::propagate() {
  for (;;) {
    // Binary learnt clauses drain to fixpoint first — cheapest per literal
    // and most likely to finish a conflict early.
    if (bin_qhead_ < trail_.size()) {
      const Lit p = trail_[bin_qhead_++];
      ++stats_.propagations;
      for (const Lit q : db_.binaries()[p.x]) {
        const std::uint8_t v = value(q);
        if (v == kTrue) continue;
        if (v == kFalse) return conflict_found(Conflict::binary(q, !p));
        enqueue(q, Reason::binary(!p));
        ++stats_.binary_props;
      }
      continue;
    }
    // One gate literal: re-evaluate the node's own gate, then every gate it
    // feeds. This is where frontier candidates are discovered.
    if (gate_qhead_ < trail_.size()) {
      const Lit p = trail_[gate_qhead_++];
      const std::uint32_t node = p.var();
      if (is_gate_[node] != 0) {
        if (p.sign() && value(fanin0_[node]) == kUnknown &&
            value(fanin1_[node]) == kUnknown)
          frontier_push(node);
        const Conflict c = eval_gate(node);
        if (!c.is_none()) return conflict_found(c);
      }
      const std::uint32_t end = fanout_off_[node + 1];
      for (std::uint32_t k = fanout_off_[node]; k < end; ++k) {
        const Conflict c = eval_gate(fanout_[k]);
        if (!c.is_none()) return conflict_found(c);
      }
      continue;
    }
    // One long-clause literal (learnt clauses + the goal clause).
    if (qhead_ < trail_.size()) {
      const ClauseRef confl = db_.propagate(
          trail_[qhead_++], value_.data(), [this](Lit first, ClauseRef cref) {
            enqueue(first, Reason::clause(cref));
          });
      if (confl != kClauseRefUndef)
        return conflict_found(Conflict::clause(confl));
      continue;
    }
    return {};
  }
}

void CircuitSolver::backtrack(std::uint32_t target) {
  if (decision_level() <= target) return;
  const std::size_t limit = trail_lim_[target];
  for (std::size_t i = trail_.size(); i-- > limit;) {
    const Lit l = trail_[i];
    const std::uint32_t v = l.var();
    phase_[v] = l.sign() ? kFalse : kTrue;
    value_[l.x] = kUnknown;
    value_[l.x ^ 1u] = kUnknown;
    reason_[v] = Reason::none();
    // A fanin going unassigned can re-expose a gate (assigned false below
    // the backtrack target) as unjustified: if its other fanin is also
    // unknown now, it re-enters the frontier. The last such unassignment
    // along the trail sees both fanins unknown, so the scan is complete.
    const std::uint32_t end = fanout_off_[v + 1];
    for (std::uint32_t k = fanout_off_[v]; k < end; ++k) {
      const std::uint32_t gate = fanout_[k];
      if (is_frontier(gate)) frontier_push(gate);
    }
  }
  trail_.resize(limit);
  trail_lim_.resize(target);
  bin_qhead_ = std::min(bin_qhead_, limit);
  gate_qhead_ = std::min(gate_qhead_, limit);
  qhead_ = std::min(qhead_, limit);
}

// ---------------------------------------------------------------------------
// Justification frontier and decisions
// ---------------------------------------------------------------------------

bool CircuitSolver::is_frontier(std::uint32_t n) const {
  return is_gate_[n] != 0 && value_[n << 1] == kFalse &&
         value(fanin0_[n]) == kUnknown && value(fanin1_[n]) == kUnknown;
}

void CircuitSolver::frontier_push(std::uint32_t n) {
  if (in_frontier_[n] != 0) return;  // already has a heap entry
  in_frontier_[n] = 1;
  ++stats_.frontier_inserts;
  frontier_.push_back(FrontierEntry{activity_[n], n});
  std::push_heap(frontier_.begin(), frontier_.end(),
                 [](const FrontierEntry& x, const FrontierEntry& y) {
                   return x.act < y.act || (x.act == y.act && x.gate < y.gate);
                 });
}

std::uint32_t CircuitSolver::frontier_pop() {
  std::pop_heap(frontier_.begin(), frontier_.end(),
                [](const FrontierEntry& x, const FrontierEntry& y) {
                  return x.act < y.act || (x.act == y.act && x.gate < y.gate);
                });
  const std::uint32_t n = frontier_.back().gate;
  frontier_.pop_back();
  in_frontier_[n] = 0;
  return n;
}

bool CircuitSolver::goal_satisfied() {
  if (goal_sat_cache_ < goal_lits_.size() &&
      value(goal_lits_[goal_sat_cache_]) == kTrue)
    return true;
  for (std::size_t i = 0; i < goal_lits_.size(); ++i) {
    if (value(goal_lits_[i]) == kTrue) {
      goal_sat_cache_ = i;
      return true;
    }
  }
  return false;
}

Lit CircuitSolver::pick_decision() {
  if (!goal_satisfied()) {
    Lit best{};
    double best_act = -1.0;
    bool found = false;
    for (const Lit l : goal_lits_) {
      if (value(l) != kUnknown) continue;
      const double act = activity_[l.var()];
      if (!found || act > best_act) {
        best = l;
        best_act = act;
        found = true;
      }
    }
    // At a propagation fixpoint an unsatisfied goal clause has at least two
    // unassigned literals: one would have been unit-propagated, zero would
    // have conflicted.
    CSAT_CHECK_MSG(found, "circuit_solver: unsatisfied goal with no branch");
    ++stats_.goal_decisions;
    return best;
  }
  if (stats_.max_frontier < frontier_.size())
    stats_.max_frontier = frontier_.size();
  while (!frontier_.empty()) {
    const std::uint32_t n = frontier_pop();
    if (!is_frontier(n)) continue;  // stale candidate, dropped lazily
    ++stats_.justification_decisions;
    // Justify g = 0 by deciding one fanin false; prefer the fanin whose
    // saved (simulation-seeded) phase already points false.
    const Lit a = fanin0_[n];
    const Lit b = fanin1_[n];
    const auto phase_false = [this](Lit l) {
      return phase_[l.var()] == (l.sign() ? kTrue : kFalse);
    };
    const Lit target = (!phase_false(a) && phase_false(b)) ? b : a;
    return !target;
  }
  return kNoLit;  // goal satisfied, every false gate justified: SAT
}

// ---------------------------------------------------------------------------
// Conflict analysis (the domain half; sat/cdcl.h has the rest)
// ---------------------------------------------------------------------------

std::uint32_t CircuitSolver::gate_clause(ClauseRef tag, std::uint32_t n,
                                         Lit* out) const {
  const Lit g = Lit::make(n, false);
  if (tag == kClauseRefGateC3) {
    out[0] = g;
    out[1] = !fanin0_[n];
    out[2] = !fanin1_[n];
    return 3;
  }
  out[0] = !g;
  out[1] = tag == kClauseRefGateC1 ? fanin0_[n] : fanin1_[n];
  return 2;
}

void CircuitSolver::minimize(std::vector<Lit>& learnt) {
  // Basic self-subsumption minimization: drop a literal whose whole reason
  // is inside the clause (or at level 0). Reasons are acyclic (antecedents
  // precede on the trail), so checking against the clause's kSeenSource
  // marks is sound even when several literals drop together.
  std::size_t out = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const Lit q = learnt[i];
    bool redundant = !reason_[q.var()].is_none();
    if (redundant) {
      const std::span<const Lit> rl = reason_lits(!q);
      for (std::size_t j = 1; j < rl.size(); ++j) {
        const std::uint32_t v = rl[j].var();
        if (level_[v] > 0 && seen_[v] == kSeenNone) {
          redundant = false;
          break;
        }
      }
    }
    if (!redundant) learnt[out++] = q;
  }
  learnt.resize(out);
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

Status CircuitSolver::finish_sat() {
  // Complete the unassigned PIs from saved phases and evaluate the whole
  // network. With the goal satisfied and every false gate justified, the
  // evaluation reproduces every assigned value (checked below in debug
  // builds), so this is a real model — not just a consistent-looking trail.
  witness_.assign(pi_nodes_.size(), false);
  node_values_.assign(num_nodes_, 0);
  for (std::size_t i = 0; i < pi_nodes_.size(); ++i) {
    const std::uint32_t pi = pi_nodes_[i];
    const std::uint8_t v = var_value(pi);
    const bool val = v == kUnknown ? phase_[pi] == kTrue : v == kTrue;
    witness_[i] = val;
    node_values_[pi] = val ? 1u : 0u;
  }
  for (std::uint32_t node = 1; node < num_nodes_; ++node) {
    if (is_gate_[node] == 0) continue;
    const Lit a = fanin0_[node];
    const Lit b = fanin1_[node];
    const std::uint8_t va = node_values_[a.var()] ^ (a.sign() ? 1u : 0u);
    const std::uint8_t vb = node_values_[b.var()] ^ (b.sign() ? 1u : 0u);
    node_values_[node] = va & vb;
  }
#ifndef NDEBUG
  for (std::uint32_t node = 0; node < num_nodes_; ++node) {
    if (var_value(node) == kUnknown) continue;
    if (is_gate_[node] == 0 && std::find(pi_nodes_.begin(), pi_nodes_.end(),
                                         node) == pi_nodes_.end())
      continue;  // the constant node; dead nodes are never assigned
    CSAT_DCHECK(node_values_[node] == var_value(node));
  }
#endif
  bool goal_ok = const_true_po_;
  for (const Lit l : goal_lits_)
    goal_ok = goal_ok || (node_values_[l.var()] ^ (l.sign() ? 1u : 0u)) != 0;
  CSAT_CHECK_MSG(goal_ok, "circuit_solver: SAT completion misses the goal");
  backtrack(0);
  return Status::kSat;
}

Status CircuitSolver::search(const Limits& limits) {
  SearchBudget budget(limits, stats_.conflicts, stats_.decisions);
  restarts_.begin(stats_.conflicts);

  for (;;) {
    if (interrupted(budget)) return Status::kUnknown;
    const Conflict confl = propagate();
    if (!confl.is_none()) {
      if (!learn(confl)) return Status::kUnsat;
      if (spent(budget)) return Status::kUnknown;
      continue;
    }
    // Propagation fixpoint.
    if (restarts_.due(stats_.conflicts)) {
      ++stats_.restarts;
      restarts_.restarted(stats_.conflicts);
      backtrack(0);
      continue;
    }
    if (spent(budget)) return Status::kUnknown;
    const Lit d = pick_decision();
    if (d == kNoLit) return finish_sat();
    decide(d);
  }
}

Status CircuitSolver::solve(const Limits& limits) {
  if (!ok_) return Status::kUnsat;
  if (forced_sat_) return finish_sat();
  return search(limits);
}

std::uint64_t CircuitSolver::memory_bytes() const {
  std::uint64_t total = kernel_bytes();
  total += (is_gate_.capacity() + in_frontier_.capacity()) *
           sizeof(std::uint8_t);
  total += (fanin0_.capacity() + fanin1_.capacity()) * sizeof(Lit);
  total += (fanout_off_.capacity() + fanout_.capacity() +
            pi_nodes_.capacity() + trail_lim_.capacity()) *
           sizeof(std::uint32_t);
  total += frontier_.capacity() * sizeof(FrontierEntry);
  return total;
}

// ---------------------------------------------------------------------------
// Debug walker
// ---------------------------------------------------------------------------

bool CircuitSolver::check_justification() {
  bool ok = check_trail();
  const auto fail = [&ok](const char* what, std::uint64_t a, std::uint64_t b) {
    std::fprintf(stderr,
                 "check_justification: %s (%llu, %llu)\n", what,
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
    ok = false;
  };
  const std::size_t n = num_nodes_;

  // Frontier flag <-> heap agreement.
  std::vector<std::uint8_t> heap_count(n, 0);
  for (const FrontierEntry& e : frontier_) {
    if (e.gate >= n || is_gate_[e.gate] == 0) {
      fail("frontier entry is not a gate", e.gate, 0);
      continue;
    }
    if (heap_count[e.gate] != 0) fail("gate twice in frontier heap", e.gate, 0);
    heap_count[e.gate] = 1;
  }
  for (std::uint32_t v = 0; v < n; ++v)
    if ((in_frontier_[v] != 0) != (heap_count[v] != 0))
      fail("frontier flag disagrees with heap", v, heap_count[v]);

  // Per-gate fixpoint invariants. Only meaningful when no propagation is
  // pending (budgeted exits can leave an asserted unit unprocessed at the
  // root) and no root conflict has been established (a level-0 conflict
  // legitimately halts propagation mid-stream); the frontier checks above
  // and check_trail() hold regardless.
  const bool fixpoint = ok_ && bin_qhead_ == trail_.size() &&
                        gate_qhead_ == trail_.size() &&
                        qhead_ == trail_.size();
  if (fixpoint) {
    for (std::uint32_t g = 0; g < n; ++g) {
      if (is_gate_[g] == 0) continue;
      const std::uint8_t vg = var_value(g);
      const std::uint8_t va = value(fanin0_[g]);
      const std::uint8_t vb = value(fanin1_[g]);
      if (vg == kTrue) {
        if (va != kTrue || vb != kTrue)
          fail("true gate with non-true fanin", g, 0);
      } else if (vg == kFalse) {
        if (va != kFalse && vb != kFalse) {
          if (va == kTrue || vb == kTrue)
            fail("false gate missed C3 propagation", g, 0);
          else if (in_frontier_[g] == 0)
            fail("unjustified false gate missing from frontier", g, 0);
        }
      } else {
        if (va == kFalse || vb == kFalse)
          fail("unassigned gate with false fanin", g, 0);
        if (va == kTrue && vb == kTrue)
          fail("unassigned gate with both fanins true", g, 0);
      }
    }
  }

  return ok;
}

// ---------------------------------------------------------------------------
// Convenience entry point
// ---------------------------------------------------------------------------

CircuitSolveResult solve_circuit(const aig::Aig& g,
                                 const CircuitSolverConfig& config,
                                 const Limits& limits) {
  CircuitSolver solver(config);
  solver.load(g);
  CircuitSolveResult result;
  result.status = solver.solve(limits);
  result.stats = solver.stats();
  if (result.status == Status::kSat) {
    result.witness = solver.witness();
    result.node_values = solver.node_values();
  }
  return result;
}

}  // namespace csat::sat
