#ifndef P2PDT_P2PSIM_SIMULATOR_H_
#define P2PDT_P2PSIM_SIMULATOR_H_

#include <cstddef>
#include <utility>

#include "common/function.h"
#include "p2psim/event_queue.h"

namespace p2pdt {

/// Simulated time in seconds since simulation start.
using SimTime = double;

/// Discrete-event simulation core: a time-ordered queue of callbacks.
///
/// This is the heart of P2PDMT (the paper's simulation toolkit): every
/// network delivery, churn transition, stabilization round and scheduled
/// evaluation is an event. Events at equal timestamps run in scheduling
/// order (a monotone sequence number breaks ties), which keeps runs
/// fully deterministic.
///
/// The scheduler is a binary heap of (time, seq) keys (see EventQueue):
/// O(log n) per event, with the callbacks kept out of the sift path.
///
/// Callbacks are move-only (UniqueFunction), so events may carry move-only
/// payloads; `std::function` and any other copyable callable convert
/// implicitly.
class Simulator {
 public:
  using Callback = UniqueFunction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` seconds from now (negative delays run
  /// now).
  void Schedule(SimTime delay, Callback fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at an absolute simulated time; a time before Now(), or
  /// one that is infinite or NaN, runs at Now().
  void ScheduleAt(SimTime when, Callback fn);

  /// Runs events until the queue empties or simulated time would exceed
  /// `until`. Events at exactly `until` are executed. Returns the number of
  /// events executed.
  std::size_t RunUntil(SimTime until);

  /// Runs until the queue is fully drained. Use with care under recurring
  /// (self-rescheduling) events — prefer RunUntil.
  std::size_t RunAll();

  /// Executes at most one pending event; returns false when idle.
  bool Step();

  std::size_t pending_events() const { return queue_.size(); }
  std::size_t executed_events() const { return executed_; }

 private:
  SimTime now_ = 0.0;
  std::size_t executed_ = 0;
  EventQueue queue_;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PSIM_SIMULATOR_H_
