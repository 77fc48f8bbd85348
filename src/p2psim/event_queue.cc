#include "p2psim/event_queue.h"

#include <algorithm>

namespace p2pdt {

namespace {

/// Heap order for std::push_heap/pop_heap, whose front is the greatest
/// element: "greater" puts the (time, seq)-minimal key in front. Sequence
/// numbers are unique, so the order is total and the pop order exact.
struct Later {
  template <typename K>
  bool operator()(const K& a, const K& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

void EventQueue::Push(double time, UniqueFunction fn) {
  uint32_t slot = static_cast<uint32_t>(slab_.size());
  if (free_slots_.empty()) {
    slab_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
  }
  heap_.push_back({time, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later());
}

SimEvent EventQueue::PopMin() {
  std::pop_heap(heap_.begin(), heap_.end(), Later());
  const Key key = heap_.back();
  heap_.pop_back();
  free_slots_.push_back(key.slot);
  return SimEvent{key.time, key.seq, std::move(slab_[key.slot])};
}

}  // namespace p2pdt
