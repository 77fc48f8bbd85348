#include "p2psim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "p2psim/simulator.h"

namespace p2pdt {
namespace {

// Reference model: the pending (time, seq) pairs in push order. The next
// event due is the first pair of least time — what a stable sort by time
// puts in front — so equal times leave in push order without the reference
// ever comparing sequence numbers.
using RefEvent = std::pair<double, uint64_t>;

bool EarlierTime(const RefEvent& a, const RefEvent& b) {
  return a.first < b.first;
}

/// Drives an EventQueue and the reference through the same random
/// push/pop schedule and asserts the same pop at every step, then drains
/// both. `time_scale` stretches the sampled gaps (dense through sparse
/// timelines); `tie_share` is the percentage of pushes that reuse a recent
/// timestamp.
void FuzzAgainstReference(uint64_t seed, int ops, double time_scale,
                          uint64_t tie_share) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed << " scale="
                                    << time_scale << " ties=" << tie_share);
  EventQueue q;
  std::vector<RefEvent> pending;
  uint64_t pushed = 0;
  Rng rng(seed);
  double now = 0.0;
  std::vector<double> tie_pool;  // recent times re-used to force ties

  for (int op = 0; op < ops; ++op) {
    if (rng.NextU64(100) < 55 || q.empty()) {
      double t = 0.0;
      if (!tie_pool.empty() && rng.NextU64(100) < tie_share) {
        t = std::max(now, tie_pool[rng.NextU64(tie_pool.size())]);
      } else {
        t = now +
            static_cast<double>(rng.NextU64(1000000)) * 1e-6 * time_scale;
        tie_pool.push_back(t);
        if (tie_pool.size() > 32) tie_pool.erase(tie_pool.begin());
      }
      q.Push(t, [] {});
      pending.push_back({t, pushed++});
    } else {
      auto due =
          std::min_element(pending.begin(), pending.end(), EarlierTime);
      EXPECT_EQ(q.MinTime(), due->first);
      SimEvent ev = q.PopMin();
      EXPECT_EQ(ev.time, due->first);
      EXPECT_EQ(ev.seq, due->second);
      now = ev.time;
      pending.erase(due);
    }
    ASSERT_EQ(q.size(), pending.size());
  }

  // Drain: the rest must come out as a stable sort by time orders it.
  std::stable_sort(pending.begin(), pending.end(), EarlierTime);
  for (const RefEvent& want : pending) {
    ASSERT_FALSE(q.empty());
    SimEvent ev = q.PopMin();
    EXPECT_EQ(ev.time, want.first);
    EXPECT_EQ(ev.seq, want.second);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FuzzMatchesStableSortReference) {
  for (uint64_t seed : {1u, 42u, 20100913u}) {
    FuzzAgainstReference(seed, 4000, 1.0, 25);
  }
}

TEST(EventQueueTest, FuzzSparseDenseAndTieHeavyTimelines) {
  FuzzAgainstReference(11, 2500, 1e6, 25);   // gaps of up to ~11 days
  FuzzAgainstReference(13, 2500, 1e-6, 25);  // gaps of up to 1 µs
  FuzzAgainstReference(17, 4000, 1.0, 90);   // most pushes tie a pending time
  FuzzAgainstReference(19, 4000, 0.0, 0);    // every event at t = 0
}

TEST(EventQueueTest, EqualTimestampsPopFifo) {
  EventQueue q;
  for (int i = 0; i < 1000; ++i) q.Push(5.0, [] {});
  // Interleave: pop half, push more at the same timestamp, drain.
  for (uint64_t i = 0; i < 500; ++i) {
    SimEvent ev = q.PopMin();
    EXPECT_EQ(ev.time, 5.0);
    EXPECT_EQ(ev.seq, i);
  }
  for (int i = 0; i < 100; ++i) q.Push(5.0, [] {});
  for (uint64_t i = 500; i < 1100; ++i) EXPECT_EQ(q.PopMin().seq, i);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ZeroDelayPushAtCurrentPopTime) {
  // The self-send pattern: an event at time t pushes follow-ups at exactly
  // t. They must run after every already-pending event at t (FIFO) but
  // before anything later.
  EventQueue q;
  q.Push(1.0, [] {});  // seq 0
  q.Push(1.0, [] {});  // seq 1
  q.Push(2.0, [] {});  // seq 2
  SimEvent first = q.PopMin();
  EXPECT_EQ(first.time, 1.0);
  EXPECT_EQ(first.seq, 0u);
  q.Push(1.0, [] {});  // seq 3: zero-delay self-send
  SimEvent second = q.PopMin();
  EXPECT_EQ(second.time, 1.0);
  EXPECT_EQ(second.seq, 1u);  // the older t=1 event goes first
  SimEvent third = q.PopMin();
  EXPECT_EQ(third.time, 1.0);
  EXPECT_EQ(third.seq, 3u);
  SimEvent fourth = q.PopMin();
  EXPECT_EQ(fourth.time, 2.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, MoveOnlyPayloadsInvokeExactlyOnce) {
  // Events are UniqueFunction: move-only captures flow through the slab
  // and out of PopMin untouched.
  EventQueue q;
  auto payload = std::make_unique<int>(41);
  int out = 0;
  q.Push(1.0, [p = std::move(payload), &out] { out = *p + 1; });
  SimEvent ev = q.PopMin();
  ev.fn();
  EXPECT_EQ(out, 42);
}

TEST(EventQueueTest, SimulatorCarriesMoveOnlyEventPayloads) {
  // End-to-end through Simulator::Schedule, the scheduling surface the
  // protocols use: it must accept move-only lambdas.
  Simulator sim;
  std::vector<int> got;
  sim.Schedule(3.0, [p = std::make_unique<int>(3), &got] {
    got.push_back(*p);
  });
  sim.Schedule(1.0, [p = std::make_unique<int>(1), &got] {
    got.push_back(*p);
  });
  sim.RunAll();
  EXPECT_EQ(got, (std::vector<int>{1, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

/// Schedules event `runs.size()`, which on running first schedules three
/// children (while `depth` lasts) and only then reads its own payload: the
/// children's pushes can grow the slab under the running callback.
struct Spawner {
  Simulator& sim;
  std::vector<int>& runs;

  void Spawn(double delay, int depth) {
    auto id = std::make_unique<std::size_t>(runs.size());
    runs.push_back(0);
    sim.Schedule(delay, [this, p = std::move(id), depth] {
      for (int c = 0; depth > 0 && c < 3; ++c) Spawn(0.25 * c, depth - 1);
      ++runs[*p];
    });
  }
};

TEST(EventQueueTest, SlabSlotsRecycleAcrossWaves) {
  // Ten waves of 300 four-level spawn trees (40 events each): every wave
  // drains the queue, so the next reuses the freed slab slots.
  Simulator sim;
  std::vector<int> runs;
  Spawner spawner{sim, runs};
  Rng rng(7);
  for (int wave = 0; wave < 10; ++wave) {
    for (int root = 0; root < 300; ++root) {
      spawner.Spawn(static_cast<double>(rng.NextU64(1000)) * 1e-3, 3);
    }
    sim.RunAll();
    ASSERT_EQ(sim.pending_events(), 0u);
  }
  ASSERT_EQ(runs.size(), 120000u);
  EXPECT_EQ(sim.executed_events(), runs.size());
  EXPECT_EQ(std::count(runs.begin(), runs.end(), 1),
            static_cast<std::ptrdiff_t>(runs.size()));
}

}  // namespace
}  // namespace p2pdt
