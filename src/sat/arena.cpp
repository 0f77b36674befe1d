#include "sat/arena.h"

#include <algorithm>

namespace csat::sat {

ClauseRef ClauseArena::alloc(std::span<const Lit> lits, bool learnt,
                             std::uint32_t lbd) {
  CSAT_DCHECK(lits.size() >= 3);
  CSAT_CHECK_MSG(data_.size() + kHeaderWords + lits.size() < kClauseRefGateC3,
                 "clause arena overflow (>16 GiB of clauses)");
  const ClauseRef ref = static_cast<ClauseRef>(data_.size());
  data_.push_back(static_cast<std::uint32_t>(lits.size()));
  data_.push_back((learnt ? kLearntFlag : 0u) |
                  (std::min(lbd, kMaxLbd) << kLbdShift));
  data_.push_back(std::bit_cast<std::uint32_t>(0.0f));
  for (Lit l : lits) data_.push_back(l.x);
  return ref;
}

void ClauseArena::mark_garbage(ClauseRef ref) {
  Clause c = (*this)[ref];
  CSAT_DCHECK(!c.garbage());
  c.base_[kFlagsWord] |= kGarbageFlag;
  garbage_words_ += kHeaderWords + c.size();
}

void ClauseArena::compact() {
  CSAT_DCHECK(old_.empty());
  old_.swap(data_);
  data_.reserve(old_.size() - garbage_words_);
  std::size_t offset = 0;
  while (offset < old_.size()) {
    std::uint32_t* base = old_.data() + offset;
    const std::size_t total = kHeaderWords + base[kSizeWord];
    if ((base[kFlagsWord] & kGarbageFlag) == 0) {
      const ClauseRef moved_to = static_cast<ClauseRef>(data_.size());
      data_.insert(data_.end(), base, base + total);
      base[kFlagsWord] |= kMovedFlag;
      base[kActivityWord] = moved_to;
    }
    offset += total;
  }
  garbage_words_ = 0;
}

ClauseRef ClauseArena::forwarded(ClauseRef ref) const {
  CSAT_DCHECK(ref + kHeaderWords <= old_.size());
  const std::uint32_t* base = old_.data() + ref;
  CSAT_DCHECK((base[kFlagsWord] & kMovedFlag) != 0);
  return base[kActivityWord];
}

void ClauseArena::compact_release() {
  old_.clear();
  old_.shrink_to_fit();
}

}  // namespace csat::sat
