#include "sat/clause_db.h"

#include <algorithm>
#include <cstdio>

namespace csat::sat {

void ClauseDb::ensure_vars(std::size_t num_vars) {
  watches_.ensure_lists(2 * num_vars);
  binaries_.ensure_lists(2 * num_vars);
  if (lbd_stamp_.size() < num_vars + 2) lbd_stamp_.resize(num_vars + 2, 0);
}

ClauseRef ClauseDb::attach(std::span<const Lit> lits, bool learnt,
                           std::uint32_t lbd) {
  CSAT_DCHECK(lits.size() >= 2);
  if (lits.size() == 2) {
    binaries_.push((!lits[0]).x, lits[1]);
    binaries_.push((!lits[1]).x, lits[0]);
    return kClauseRefBinary;
  }
  const ClauseRef cref = arena_.alloc(lits, learnt, lbd);
  if (learnt) {
    ClauseArena::Clause c = arena_[cref];
    c.set_activity(static_cast<float>(clause_inc_));
    if (lbd <= kGlueKeep) c.set_protect();
    learnts_.push_back(cref);
  }
  watches_.push((!lits[0]).x, {cref, lits[1]});
  watches_.push((!lits[1]).x, {cref, lits[0]});
  return cref;
}

void ClauseDb::bump(ClauseRef cref) {
  ClauseArena::Clause c = arena_[cref];
  if (!c.learnt()) return;
  c.set_activity(c.activity() + static_cast<float>(clause_inc_));
  if (c.activity() > 1e20f) {
    for (const ClauseRef cr : learnts_) {
      ClauseArena::Clause lc = arena_[cr];
      lc.set_activity(lc.activity() * 1e-20f);
    }
    clause_inc_ *= 1e-20;
  }
}

std::uint32_t ClauseDb::lbd(std::span<const Lit> lits,
                            const std::uint32_t* level,
                            std::uint32_t max_level) {
  // Assumption levels can outnumber the variables.
  if (lbd_stamp_.size() <= max_level) lbd_stamp_.resize(max_level + 1, 0);
  if (++lbd_gen_ == 0) {  // generation wrap: invalidate every stamp
    std::fill(lbd_stamp_.begin(), lbd_stamp_.end(), 0u);
    lbd_gen_ = 1;
  }
  std::uint32_t lbd = 0;
  for (const Lit l : lits) {
    const std::uint32_t lev = level[l.var()];
    if (lev > 0 && lbd_stamp_[lev] != lbd_gen_) {
      lbd_stamp_[lev] = lbd_gen_;
      ++lbd;
    }
  }
  return lbd;
}

void ClauseDb::delete_worse_half(std::vector<ClauseRef>& candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [this](ClauseRef a, ClauseRef b) {
              ClauseArena::Clause ca = arena_[a];
              ClauseArena::Clause cb = arena_[b];
              if (ca.lbd() != cb.lbd()) return ca.lbd() > cb.lbd();
              if (ca.activity() != cb.activity())
                return ca.activity() < cb.activity();
              return a < b;
            });
  candidates.resize(candidates.size() / 2);
  if (candidates.empty()) return;
  for (const ClauseRef cr : candidates) arena_.mark_garbage(cr);
  // One sweep over every long list instead of a per-clause detach: a
  // reduction deletes thousands of clauses, so one O(watchers) pass beats
  // O(deleted * list length) searches. Binary lists hold no crefs.
  for (std::size_t i = 0; i < watches_.num_lists(); ++i) {
    const std::span<Watcher> ws = watches_[i];
    std::uint32_t keep = 0;
    for (const Watcher& w : ws)
      if (!arena_[w.cref].garbage()) ws[keep++] = w;
    watches_.set_size(i, keep);
  }
  std::erase_if(learnts_, [this](ClauseRef r) { return arena_[r].garbage(); });
}

void ClauseDb::compact_arena() {
  arena_.compact();
  // Only each list's live span: dead slabs hold stale crefs for which
  // forwarding is undefined.
  for (std::size_t i = 0; i < watches_.num_lists(); ++i)
    for (Watcher& w : watches_[i]) w.cref = arena_.forwarded(w.cref);
  for (ClauseRef& cr : learnts_) cr = arena_.forwarded(cr);
}

void ClauseDb::compact_watches(const std::uint8_t* value) {
  // The same quarter-dead trigger as the arena: slabs abandoned by growth
  // relocation are the watcher-side analogue of garbage clause words.
  if (watches_.dead_slots() > 0 &&
      watches_.dead_slots() * 4 >= watches_.total_slots()) {
    // Blocker-aware repack: front the watchers BCP will skip without a
    // clause visit (blocker currently true), so the next descent reads
    // them as one sequential run before any cache-missing clause loads.
    watches_.compact(
        [value](const Watcher& w) { return value[w.blocker.x] == kTrue; });
  }
  if (binaries_.dead_slots() > 0 &&
      binaries_.dead_slots() * 4 >= binaries_.total_slots()) {
    binaries_.compact();
  }
}

bool ClauseDb::check_watches() {
  bool ok = true;
  const auto fail = [&ok](const char* what, std::uint64_t a, std::uint64_t b) {
    std::fprintf(stderr, "check_watches: %s (%llu, %llu)\n", what,
                 static_cast<unsigned long long>(a),
                 static_cast<unsigned long long>(b));
    ok = false;
  };

  // Long watchers: per-cref hit counts for each watch slot, plus per-entry
  // sanity (live in-range clause, list literal negates one of the first
  // two clause literals, blocker is a clause literal).
  std::vector<std::uint8_t> slot0(arena_.size_words(), 0);
  std::vector<std::uint8_t> slot1(arena_.size_words(), 0);
  for (std::size_t list = 0; list < watches_.num_lists(); ++list) {
    const Lit watched = !Lit(static_cast<std::uint32_t>(list));
    for (const Watcher& w : watches_[list]) {
      if (w.cref + ClauseArena::kHeaderWords > arena_.size_words()) {
        fail("watcher cref out of range", list, w.cref);
        continue;
      }
      ClauseArena::Clause c = arena_[w.cref];
      if (c.garbage()) {
        fail("watcher references garbage clause", list, w.cref);
        continue;
      }
      if (c[0] == watched) {
        if (++slot0[w.cref] > 1) fail("watched twice on lit 0", list, w.cref);
      } else if (c[1] == watched) {
        if (++slot1[w.cref] > 1) fail("watched twice on lit 1", list, w.cref);
      } else {
        fail("list literal is not a watch of the clause", list, w.cref);
      }
      bool blocker_in_clause = false;
      for (const Lit l : c.lits()) blocker_in_clause |= l == w.blocker;
      if (!blocker_in_clause) fail("blocker not in clause", list, w.cref);
    }
  }
  arena_.for_each_clause([&](ClauseRef cref) {
    if (slot0[cref] != 1 || slot1[cref] != 1)
      fail("live clause not watched exactly twice", slot0[cref] + slot1[cref],
           cref);
  });

  // Binary clauses: every entry {list p, implied other} is clause
  // {!p, other} and must appear mirrored in (!other)'s list. Collect each
  // direction keyed by the canonical (sorted) literal pair; symmetric
  // multisets <=> every clause is attached in both directions.
  std::vector<std::uint64_t> fwd;
  std::vector<std::uint64_t> rev;
  for (std::size_t list = 0; list < binaries_.num_lists(); ++list) {
    const Lit a = !Lit(static_cast<std::uint32_t>(list));
    for (const Lit other : binaries_[list]) {
      if (a == other) {
        fail("degenerate binary clause", a.x, 0);
        continue;
      }
      const std::uint64_t lo = std::min(a.x, other.x);
      const std::uint64_t hi = std::max(a.x, other.x);
      (a.x < other.x ? fwd : rev).push_back((lo << 32) | hi);
    }
  }
  std::sort(fwd.begin(), fwd.end());
  std::sort(rev.begin(), rev.end());
  if (fwd != rev)
    fail("binary lists are not mirror-symmetric", fwd.size(), rev.size());
  return ok;
}

std::uint64_t ClauseDb::bytes() const {
  return arena_.bytes() + watch_bytes() +
         (learnts_.capacity() + lbd_stamp_.capacity()) * sizeof(std::uint32_t);
}

}  // namespace csat::sat
