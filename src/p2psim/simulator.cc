#include "p2psim/simulator.h"

#include <cmath>

namespace p2pdt {

void Simulator::ScheduleAt(SimTime when, Callback fn) {
  // A past, infinite or NaN time runs now: time never goes backwards.
  if (!std::isfinite(when) || when < now_) when = now_;
  queue_.Push(when, std::move(fn));
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  SimEvent ev = queue_.PopMin();
  now_ = ev.time;
  ++executed_;
  ev.fn();
  return true;
}

std::size_t Simulator::RunUntil(SimTime until) {
  std::size_t count = 0;
  while (!queue_.empty() && queue_.MinTime() <= until) {
    Step();
    ++count;
  }
  if (now_ < until) now_ = until;
  return count;
}

std::size_t Simulator::RunAll() {
  std::size_t count = 0;
  while (Step()) ++count;
  return count;
}

}  // namespace p2pdt
