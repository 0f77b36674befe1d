#ifndef CSAT_SAT_CLAUSE_EXCHANGE_H
#define CSAT_SAT_CLAUSE_EXCHANGE_H

/// \file clause_exchange.h
/// Bounded multi-producer/multi-consumer ring for sharing learnt clauses
/// across portfolio workers (HordeSat-style).
///
/// Publishers claim a monotonically increasing ticket from an atomic head
/// counter and write the clause into slot `ticket % capacity` under that
/// slot's own mutex — contention is sharded across slots, and a publisher
/// never blocks on the ring being full. Each consumer keeps a private
/// Cursor (the next ticket it wants) and drains every clause published
/// since, skipping its own.
///
/// Overwrite semantics (bounded capacity): when producers outrun a
/// consumer by more than `capacity` tickets, the oldest unread clauses are
/// overwritten in place. The consumer observes a slot stamped with a newer
/// ticket than the one it asked for, counts the clause as *lost* and moves
/// on — clauses are dropped, never torn or duplicated. Losing shared
/// clauses is always safe: they are an optimization, not part of the
/// formula. A slot whose publisher has claimed a ticket but not yet
/// finished writing simply stops the drain early; the cursor stays put and
/// the clause is picked up on the next drain.

#include <cstddef>
#include <cstdint>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cnf/cnf.h"

namespace csat::sat {

using cnf::Lit;

class ClauseExchange {
 public:
  /// Widest clause the ring can carry by default; publish() drops longer
  /// ones (solver-side ClauseSharingOptions::max_size filters first, so
  /// nothing is lost in practice).
  static constexpr std::uint32_t kDefaultMaxClauseSize = 32;

  /// \p capacity is the number of ring slots (rounded up to at least 1).
  /// Slot literal storage is one flat pre-sized buffer of
  /// capacity * max_clause_size literals — publishing and draining never
  /// allocate, mirroring the solver's arena layout.
  explicit ClauseExchange(std::size_t capacity,
                          std::uint32_t max_clause_size = kDefaultMaxClauseSize);

  ClauseExchange(const ClauseExchange&) = delete;
  ClauseExchange& operator=(const ClauseExchange&) = delete;

  /// Per-consumer drain position: the next ticket this consumer wants.
  /// A default-constructed cursor starts at ticket 0 (the ring's first
  /// clause ever published). Cursors are private to their consumer and
  /// must not be shared across threads.
  struct Cursor {
    std::uint64_t next = 0;
  };

  struct DrainStats {
    std::size_t delivered = 0;  ///< clauses handed to the sink
    std::size_t skipped = 0;    ///< own clauses (source == self)
    /// Tickets overwritten before this consumer read them. The original
    /// publisher is unknowable once the slot is reused, so this counts the
    /// consumer's own lapped publications too.
    std::size_t lost = 0;
  };

  /// Publishes a clause learnt by worker \p source. Never blocks on a full
  /// ring; the oldest clause in the target slot is overwritten. Clauses
  /// wider than max_clause_size are dropped before a ticket is claimed, so
  /// published() and drain accounting stay exact.
  void publish(std::size_t source, std::span<const Lit> lits,
               std::uint32_t lbd);

  /// Delivers every clause published since \p cursor that did not originate
  /// from worker \p self to \p sink, advancing the cursor. The clause is
  /// copied out under the slot lock and the sink runs unlocked, so a slow
  /// sink (e.g. a full clause import) never stalls publishers. Sink must
  /// not re-enter the exchange.
  template <typename Sink>
  DrainStats drain(Cursor& cursor, std::size_t self, Sink&& sink) {
    DrainStats out;
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    if (head - cursor.next > capacity_) {
      // Everything older than one full ring is necessarily overwritten:
      // jump straight past it instead of taking a slot lock per lost
      // ticket (a badly lagged consumer would otherwise do O(published)
      // locked iterations).
      const std::uint64_t oldest = head - capacity_;
      out.lost += oldest - cursor.next;
      cursor.next = oldest;
    }
    std::vector<Lit> scratch;
    while (cursor.next < head) {
      const std::uint64_t ticket = cursor.next;
      Slot& slot = slots_[ticket % capacity_];
      std::uint32_t lbd = 0;
      std::size_t source = 0;
      bool deliver = false;
      {
        std::lock_guard<std::mutex> lock(slot.mutex);
        if (slot.stamp < ticket + 1) {
          // Ticket claimed but the clause is not written yet (or the slot
          // is still empty): stop here and retry on the next drain.
          break;
        }
        if (slot.stamp > ticket + 1) {
          // The ring lapped this consumer; the clause is gone.
          ++out.lost;
          ++cursor.next;
          continue;
        }
        if (slot.source == self) {
          ++out.skipped;
        } else {
          const Lit* lits = slot_lits(ticket % capacity_);
          scratch.assign(lits, lits + slot.size);
          lbd = slot.lbd;
          source = slot.source;
          deliver = true;
        }
      }
      if (deliver) {
        sink(std::span<const Lit>(scratch), lbd, source);
        ++out.delivered;
      }
      ++cursor.next;
    }
    return out;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Total clauses ever published (monotonic; >= capacity() means the ring
  /// has wrapped at least once).
  [[nodiscard]] std::uint64_t published() const {
    return head_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    std::mutex mutex;
    /// ticket + 1 of the clause currently stored; 0 = never written.
    std::uint64_t stamp = 0;
    std::size_t source = 0;
    std::uint32_t lbd = 0;
    std::uint32_t size = 0;  ///< literal count; payload lives in lit_buffer_
  };

  /// Slot \p index's literals inside the shared flat buffer.
  [[nodiscard]] Lit* slot_lits(std::size_t index) {
    return lit_buffer_.get() + index * max_clause_size_;
  }

  std::size_t capacity_;
  std::uint32_t max_clause_size_;
  std::unique_ptr<Slot[]> slots_;
  /// One flat allocation of capacity_ * max_clause_size_ literals; slot i
  /// owns the stride starting at i * max_clause_size_, guarded by slot i's
  /// mutex.
  std::unique_ptr<Lit[]> lit_buffer_;
  std::atomic<std::uint64_t> head_{0};
};

/// FNV-1a-style hash of a clause, invariant under literal order; used for
/// cross-worker duplicate suppression.
[[nodiscard]] std::uint64_t clause_hash(std::span<const Lit> lits);

}  // namespace csat::sat

#endif  // CSAT_SAT_CLAUSE_EXCHANGE_H
