#include "p2psim/sharding.h"

#include <algorithm>
#include <vector>

#include "common/thread_pool.h"

namespace p2pdt {

std::size_t ResolveShards(std::size_t num_items,
                          const ShardPlanOptions& options) {
  std::size_t shards =
      options.shards != 0 ? options.shards : ThreadPool::GlobalConcurrency();
  shards = std::max<std::size_t>(shards, 1);
  if (num_items > 0) shards = std::min(shards, num_items);
  return shards;
}

std::size_t ShardedPhase(
    std::size_t num_items, const ShardPlanOptions& options,
    const std::function<UniqueFunction(std::size_t)>& work) {
  const std::size_t shards = ResolveShards(num_items, options);
  if (num_items == 0) return shards;

  // Compute fan-out: each shard task fills only its own slice of the commit
  // array, so the phase needs no locks.
  std::vector<UniqueFunction> commits(num_items);
  ParallelFor(0, shards, 1, options.num_threads,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t s = lo; s < hi; ++s) {
                  const std::size_t begin = s * num_items / shards;
                  const std::size_t end = (s + 1) * num_items / shards;
                  for (std::size_t item = begin; item < end; ++item) {
                    commits[item] = work(item);
                  }
                }
              });

  // Commit serially in item order — the exact order a serial loop would
  // have used, independent of shards/threads.
  for (UniqueFunction& commit : commits) {
    if (commit) commit();
  }
  return shards;
}

}  // namespace p2pdt
