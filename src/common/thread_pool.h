#ifndef P2PDT_COMMON_THREAD_POOL_H_
#define P2PDT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/function.h"

namespace p2pdt {

/// Fixed-size worker pool with a bounded task queue and a dynamically
/// scheduled ParallelFor.
///
/// The pool exists for the one embarrassingly-parallel hot loop in this
/// codebase: the (peer × tag) local-training grid. Per-tag work is heavily
/// skewed (tag popularity is Zipf-like), so ParallelFor hands out small
/// chunks from a shared counter — a work-queue form of work stealing —
/// instead of static range splits.
///
/// Determinism contract: the pool never introduces randomness of its own.
/// Callers must make every iteration of a ParallelFor body a pure function
/// of its index (seed RNGs from data identity such as (peer, tag), never
/// from thread or chunk identity) and write only to per-index slots; under
/// that contract results are bit-identical for every pool size, including
/// the serial (zero-worker) pool.
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (0 = everything runs inline on the
  /// calling thread). `max_queued` bounds the task queue; Submit blocks
  /// while the queue is full so bursty producers cannot accumulate
  /// unbounded closures.
  explicit ThreadPool(std::size_t num_workers, std::size_t max_queued = 256);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const { return workers_.size(); }

  /// Enqueues a fire-and-forget task. Blocks while the queue is full. With
  /// zero workers the task runs inline before Submit returns. Tasks must
  /// not throw; a throwing task is caught and logged.
  void Submit(std::function<void()> task);

  /// Runs `body(lo, hi)` over subranges of [begin, end) in chunks of
  /// `chunk` iterations, using the calling thread plus every worker.
  /// Blocks until every iteration completed. Chunks are claimed from a
  /// shared atomic counter, so skewed per-iteration cost balances
  /// dynamically. If any chunk throws, the exception from the
  /// lowest-indexed throwing chunk is rethrown here (deterministic
  /// regardless of scheduling).
  ///
  /// Nested calls — from inside a pool worker, or from the caller while it
  /// runs chunks of an outer ParallelFor — run inline (serial). This keeps
  /// per-peer tasks free to call parallel trainers without deadlock or
  /// oversubscription.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t chunk,
                   const std::function<void(std::size_t, std::size_t)>& body);

  /// True when called from one of this process's pool worker threads.
  static bool InWorker();

  /// Process-wide pool behind every parallel phase. Sized by the
  /// P2PDT_THREADS environment variable on first use: a decimal count,
  /// clamped at 256 (1 = fully serial); unset, 0 or anything else — a sign
  /// included — means hardware_concurrency. The value T is total
  /// concurrency — the global pool holds T-1 workers and ParallelFor
  /// callers contribute the Tth thread.
  static ThreadPool& Global();

  /// The resolved global concurrency T (>= 1).
  static std::size_t GlobalConcurrency();

  /// Overrides the global concurrency (0 = re-resolve from the environment)
  /// and rebuilds the global pool. Not safe while tasks are in flight;
  /// intended for tests and benchmark sweeps.
  static void SetGlobalConcurrency(std::size_t threads);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  std::size_t max_queued_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// ThreadPool::ParallelFor on the global pool. The global concurrency is
/// the only setting: results are bit-identical at every value, so no caller
/// picks its own thread count.
void ParallelFor(std::size_t begin, std::size_t end, std::size_t chunk,
                 const std::function<void(std::size_t, std::size_t)>& body);

/// Runs a compute/commit phase over `num_items` items on the global pool.
///
/// Items are claimed one at a time (ParallelFor with a chunk of 1), so
/// skewed per-item cost balances dynamically. `work(item)` does the
/// *compute* — it must touch only per-item state (its own output slot) —
/// and returns a *commit* action (possibly empty) holding everything with
/// cross-item effects: simulator scheduling, network sends, shared-container
/// writes. The phase hands out no randomness; work that needs some keys it
/// on item identity, so results cannot depend on which thread ran it.
///
/// After every item is computed, the commits run on the calling thread in
/// item order 0..num_items-1 — exactly the order a serial loop would have
/// issued them, whatever order the items finished in. That is what makes a
/// parallel run bit-identical to a serial one: the simulator sees one
/// deterministic sequence of calls either way.
///
/// Commits are UniqueFunction, so a commit may own move-only payloads (a
/// trained model moved from the worker into the closure, never copied).
void ComputeCommitPhase(
    std::size_t num_items,
    const std::function<UniqueFunction(std::size_t item)>& work);

}  // namespace p2pdt

#endif  // P2PDT_COMMON_THREAD_POOL_H_
