#ifndef P2PDT_P2PSIM_SHARDING_H_
#define P2PDT_P2PSIM_SHARDING_H_

#include <cstddef>
#include <functional>

#include "common/function.h"

namespace p2pdt {

/// Partitioning plan for one ShardedPhase call.
struct ShardPlanOptions {
  /// Number of contiguous shards the item range is split into. 0 sizes the
  /// plan to the global concurrency (one shard per available thread).
  std::size_t shards = 0;
  /// Threads driving the shards (the ParallelFor `threads` knob: 0 = global
  /// P2PDT_THREADS setting, 1 = serial on the caller).
  std::size_t num_threads = 0;
};

/// Shard count a plan resolves to for `num_items` items (>= 1; never more
/// than the item count).
std::size_t ResolveShards(std::size_t num_items, const ShardPlanOptions& options);

/// Runs a compute/commit phase over `num_items` items, sharded across the
/// global thread pool.
///
/// The item range [0, num_items) is split into `shards` contiguous shards;
/// each shard runs on one pool task and calls `work(item)` for its items in
/// ascending order. `work` does the *compute* — it must touch only per-item
/// state (its own output slot) — and returns a *commit* action (possibly
/// empty) holding everything with cross-item effects: simulator
/// scheduling, network sends, shared-container writes. The phase hands out
/// no randomness; work that needs some keys it on item identity, so results
/// cannot depend on the shard count.
///
/// After every shard finishes, the commit actions execute on the calling
/// thread in item order 0..num_items-1 — exactly the order a serial loop
/// would have issued them. That ordering is independent of both the shard
/// count and the thread count, which is what makes sharded runs
/// bit-identical to serial ones: the simulator sees one deterministic
/// sequence of calls either way.
///
/// Commits are UniqueFunction, so a commit may own move-only payloads (a
/// trained model moved from the worker into the closure, never copied).
///
/// Returns the resolved shard count (diagnostics).
std::size_t ShardedPhase(
    std::size_t num_items, const ShardPlanOptions& options,
    const std::function<UniqueFunction(std::size_t item)>& work);

}  // namespace p2pdt

#endif  // P2PDT_P2PSIM_SHARDING_H_
