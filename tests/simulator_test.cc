#include "p2psim/simulator.h"

#include <limits>

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(SimulatorTest, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NegativeDelayClamped) {
  Simulator sim;
  sim.Schedule(5.0, [] {});
  sim.RunAll();
  bool ran = false;
  sim.Schedule(-3.0, [&] { ran = true; });
  sim.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);  // time never goes backward
}

TEST(SimulatorTest, ScheduleAtClampsToNow) {
  Simulator sim;
  sim.Schedule(10.0, [] {});
  sim.RunAll();
  double when = -1;
  sim.ScheduleAt(2.0, [&] { when = sim.Now(); });
  sim.RunAll();
  EXPECT_DOUBLE_EQ(when, 10.0);
}

TEST(SimulatorTest, NonFiniteTimeRunsNow) {
  Simulator sim;
  sim.RunUntil(5.0);
  std::vector<double> ran_at;
  sim.ScheduleAt(std::numeric_limits<double>::infinity(),
                 [&] { ran_at.push_back(sim.Now()); });
  sim.ScheduleAt(std::numeric_limits<double>::quiet_NaN(),
                 [&] { ran_at.push_back(sim.Now()); });
  sim.Schedule(std::numeric_limits<double>::infinity(),
               [&] { ran_at.push_back(sim.Now()); });
  sim.RunAll();
  EXPECT_EQ(ran_at, (std::vector<double>{5.0, 5.0, 5.0}));
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);  // time never goes backward
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(1.0, [&] { ++ran; });
  sim.Schedule(2.0, [&] { ++ran; });
  sim.Schedule(2.5, [&] { ++ran; });
  std::size_t count = sim.RunUntil(2.0);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);  // advances even past the last event
  sim.RunAll();
  EXPECT_EQ(ran, 3);
}

TEST(SimulatorTest, RunUntilAdvancesTimeWhenIdle) {
  Simulator sim;
  sim.RunUntil(42.0);
  EXPECT_DOUBLE_EQ(sim.Now(), 42.0);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<double> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.Now());
    if (times.size() < 4) sim.Schedule(1.0, chain);
  };
  sim.Schedule(0.5, chain);
  sim.RunAll();
  EXPECT_EQ(times, (std::vector<double>{0.5, 1.5, 2.5, 3.5}));
}

TEST(SimulatorTest, RecurringEventBoundedByRunUntil) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    sim.Schedule(1.0, tick);
  };
  sim.Schedule(1.0, tick);
  sim.RunUntil(10.0);
  EXPECT_EQ(ticks, 10);
  EXPECT_GT(sim.pending_events(), 0u);  // next tick still queued
}

TEST(SimulatorTest, ExecutedEventCount) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(i, [] {});
  sim.RunAll();
  EXPECT_EQ(sim.executed_events(), 7u);
}

}  // namespace
}  // namespace p2pdt
