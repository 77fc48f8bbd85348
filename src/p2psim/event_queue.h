#ifndef P2PDT_P2PSIM_EVENT_QUEUE_H_
#define P2PDT_P2PSIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/function.h"

namespace p2pdt {

/// One popped simulation event: absolute time, monotone sequence number
/// (the FIFO tie-break at equal timestamps that keeps runs reproducible)
/// and the callback. The callback is move-only, so events can carry
/// move-only payloads (`std::unique_ptr` captures and the like).
struct SimEvent {
  double time = 0.0;
  uint64_t seq = 0;
  UniqueFunction fn;
};

/// The simulator's pending-event set: a binary min-heap over small
/// (time, seq, slot) keys, with the callbacks parked in a slab whose slots
/// a free list recycles. Only the 24-byte keys move while the heap sifts;
/// each callback is written once on Push and moved out once on PopMin.
///
/// Ordering contract: events pop in exactly ascending (time, seq) order,
/// where seq counts Push calls, so equal timestamps pop FIFO in scheduling
/// order. Times must be finite (Simulator clamps them).
class EventQueue {
 public:
  void Push(double time, UniqueFunction fn);

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  /// Timestamp of the next event to pop. Requires !empty().
  double MinTime() const { return heap_.front().time; }

  /// Removes and returns the (time, seq)-minimal event, its callback moved
  /// out of the slab, so running it may push (and grow the slab) freely.
  /// Requires !empty().
  SimEvent PopMin();

 private:
  struct Key {
    double time;
    uint64_t seq;
    uint32_t slot;
  };

  std::vector<Key> heap_;
  std::vector<UniqueFunction> slab_;
  std::vector<uint32_t> free_slots_;
  uint64_t next_seq_ = 0;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PSIM_EVENT_QUEUE_H_
