#ifndef P2PDT_NET_DEADLINE_WHEEL_H_
#define P2PDT_NET_DEADLINE_WHEEL_H_

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>
#include <vector>

namespace p2pdt {

/// Hashed timing wheel for coarse connection deadlines (idle reaping,
/// drain timeouts). Timers land in slot (deadline / tick) % slots; Advance
/// walks the slots between the last processed tick and `now`, firing every
/// entry whose deadline has passed. Entries more than one rotation out
/// simply stay in their slot until a pass where they are actually due.
///
/// Precision is one tick — exactly what reaping wants: cheap arm/cancel
/// (O(1) amortized) at thousands of connections, with deadlines that only
/// need to be roughly right. Exact, deterministic event ordering is the
/// simulator's EventQueue; this wheel is the socket-daemon sibling tuned
/// for wall-clock timeouts, not simulation determinism.
///
/// Single-threaded: owned and driven by the event loop thread.
class DeadlineWheel {
 public:
  using TimerId = uint64_t;
  static constexpr TimerId kInvalidTimer = 0;

  explicit DeadlineWheel(double tick_seconds = 0.05, std::size_t slots = 256);

  /// Arms a timer at absolute time `deadline` (same clock as Advance).
  TimerId Arm(double deadline, std::function<void()> callback);

  /// Cancels a pending timer. Returns false when it already fired or was
  /// never armed.
  bool Cancel(TimerId id);

  /// Fires every timer with deadline <= now. Callbacks may arm or cancel
  /// other timers freely.
  void Advance(double now);

  /// Earliest pending deadline, or +infinity when no timer is armed.
  double NextDeadline() const;

  std::size_t armed() const { return entries_.size(); }

 private:
  struct Entry {
    double deadline = 0.0;
    std::size_t slot = 0;
    std::function<void()> callback;
  };

  std::size_t SlotFor(double deadline) const;

  double tick_;
  std::vector<std::vector<TimerId>> slots_;
  std::unordered_map<TimerId, Entry> entries_;
  /// Pending deadlines, for NextDeadline(); multiset because deadlines
  /// collide (every idle conn re-arms at now + idle_timeout).
  std::multiset<double> deadlines_;
  TimerId next_id_ = 1;
  /// Last tick index Advance processed through.
  int64_t last_tick_ = -1;
};

}  // namespace p2pdt

#endif  // P2PDT_NET_DEADLINE_WHEEL_H_
