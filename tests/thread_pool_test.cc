#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

TEST(ThreadPoolTest, DestructorDrainsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins after the queue drains
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  int ran = 0;
  pool.Submit([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);  // inline: already done when Submit returned
  std::vector<int> out(10, 0);
  pool.ParallelFor(0, 10, 3, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out[i] = static_cast<int>(i);
  });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, n, 7, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingleChunkRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(5, 5, 4, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A range that fits in one chunk runs inline as a single call.
  pool.ParallelFor(0, 3, 8, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 3u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossManyParallelFors) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> out(64, -1);
    pool.ParallelFor(0, out.size(), 4, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) out[i] = round;
    });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0),
              round * static_cast<int>(out.size()));
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [](std::size_t lo, std::size_t) {
                         if (lo == 42) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives a throwing ParallelFor.
  std::atomic<int> counter{0};
  pool.ParallelFor(0, 10, 1, [&](std::size_t lo, std::size_t hi) {
    counter.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, LowestIndexedExceptionWinsDeterministically) {
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    try {
      pool.ParallelFor(0, 64, 1, [](std::size_t lo, std::size_t) {
        if (lo == 9) throw std::runtime_error("early");
        if (lo == 50) throw std::runtime_error("late");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "early");
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(16 * 16);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, 16, 1, [&](std::size_t olo, std::size_t ohi) {
    for (std::size_t o = olo; o < ohi; ++o) {
      pool.ParallelFor(0, 16, 1, [&, o](std::size_t ilo, std::size_t ihi) {
        for (std::size_t i = ilo; i < ihi; ++i) {
          hits[o * 16 + i].fetch_add(1);
        }
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, BoundedQueueStillCompletesUnderBurst) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2, /*max_queued=*/2);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, GlobalConcurrencyKnob) {
  ThreadPool::SetGlobalConcurrency(3);
  EXPECT_EQ(ThreadPool::GlobalConcurrency(), 3u);
  EXPECT_EQ(ThreadPool::Global().num_workers(), 2u);

  ThreadPool::SetGlobalConcurrency(1);  // serial mode: no workers at all
  EXPECT_EQ(ThreadPool::GlobalConcurrency(), 1u);
  EXPECT_EQ(ThreadPool::Global().num_workers(), 0u);

  std::vector<int> out(20, 0);
  ParallelFor(0, out.size(), 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) out[i] = 1;
  });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 20);

  ThreadPool::SetGlobalConcurrency(4);
  EXPECT_EQ(ThreadPool::Global().num_workers(), 3u);
}

class ComputeCommitPhaseTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { ThreadPool::SetGlobalConcurrency(GetParam()); }
  void TearDown() override { ThreadPool::SetGlobalConcurrency(0); }
};

TEST_P(ComputeCommitPhaseTest, CommitsInItemOrderWhateverOrderItemsFinish) {
  constexpr std::size_t kItems = 37;
  // With helpers present, item 0 is by far the most expensive: it waits
  // until every other item has been computed. Only dynamic claims let the
  // other threads take items 1..36 meanwhile (a contiguous split would hand
  // them to item 0's thread, so the bounded wait would run out), and the
  // items then finish in an order far from item order.
  const bool parallel = GetParam() > 1;
  std::atomic<std::size_t> computed{0};
  bool waited_for_the_rest = false;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ComputeCommitPhase(kItems, [&](std::size_t item) -> UniqueFunction {
    if (item == 0 && parallel) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (computed.load() < kItems - 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      waited_for_the_rest = computed.load() == kItems - 1;
    }
    computed.fetch_add(1);
    return [&, item] {
      // Commits start only once every item is computed, on the caller.
      EXPECT_EQ(computed.load(), kItems);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(item);
    };
  });
  EXPECT_EQ(waited_for_the_rest, parallel);
  std::vector<std::size_t> expected(kItems);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(order, expected);
}

INSTANTIATE_TEST_SUITE_P(Threads, ComputeCommitPhaseTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{3}, std::size_t{4}));

}  // namespace
}  // namespace p2pdt
