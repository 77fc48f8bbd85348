#ifndef P2PDT_COMMON_STOPWATCH_H_
#define P2PDT_COMMON_STOPWATCH_H_

#include <chrono>

namespace p2pdt {

/// Wall-clock stopwatch for coarse timing in examples and the bench harness.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace p2pdt

#endif  // P2PDT_COMMON_STOPWATCH_H_
