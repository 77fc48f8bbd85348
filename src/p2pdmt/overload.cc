#include "p2pdmt/overload.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/fnv.h"

namespace p2pdt {

namespace {

/// Simulated-time budget for the load replay to finish.
constexpr double kMaxLoadSimSeconds = 86400.0;

}  // namespace

Result<OverloadRunStats> RunOverloadExperiment(
    const VectorizedCorpus& corpus, const OverloadExperimentOptions& options) {
  CorpusSplit split = SplitCorpus(corpus, kTrainFraction, options.seed);
  if (split.train.size() == 0 || split.test.size() == 0) {
    return Status::InvalidArgument(
        "overload harness needs non-empty train and test splits");
  }

  ExperimentOptions setup;
  setup.algorithm = options.algorithm;
  setup.env = options.env;
  setup.env.observe.metrics = true;  // the SLO histogram lives here
  setup.cempar = options.cempar;
  setup.pace = options.pace;
  const std::size_t num_peers = setup.env.num_peers;
  Result<std::vector<DatasetShard>> shards = DistributeDataShared(
      std::make_shared<const MultiLabelDataset>(split.train), num_peers,
      options.distribution, &split.train_user);
  if (!shards.ok()) return shards.status();
  Result<SimulatedClassifier> sim = SetupClassifier(
      setup, std::move(shards).value(), corpus.dataset.num_tags());
  if (!sim.ok()) return sim.status();
  Environment& env = *sim->env;
  P2PClassifier& algo = *sim->algo;

  OverloadRunStats stats;
  Result<double> train_seconds =
      TrainToQuiescence(env, algo, kMaxTrainSimSeconds);
  if (!train_seconds.ok()) return train_seconds.status();
  stats.train_sim_seconds = *train_seconds;

  // Request catalog in popularity order: test documents by index. The
  // split must stay alive until the generator finishes — docs are views.
  std::vector<const SparseVector*> docs;
  const std::size_t catalog =
      options.max_docs == 0
          ? split.test.size()
          : std::min(options.max_docs, split.test.size());
  docs.reserve(catalog);
  for (std::size_t i = 0; i < catalog; ++i) docs.push_back(&split.test[i].x);
  std::vector<NodeId> requesters(num_peers);
  for (std::size_t p = 0; p < num_peers; ++p) requesters[p] = p;

  if (options.loadgen.enabled) {
    SessionLoadGenerator gen(env.sim(), algo, options.loadgen, docs,
                             requesters, *env.metrics());
    bool load_done = false;
    gen.Run([&](const LoadGenResult& r) {
      stats.load = r;
      load_done = true;
    });
    env.RunUntilFlag(load_done, kMaxLoadSimSeconds);
    if (!load_done) {
      return Status::Internal("overload harness: load did not quiesce");
    }
  } else {
    // Disarmed bit-identity witness: a short sequential prediction pass
    // fingerprinting only the answers. Idle overload machinery (queues
    // with no contention, an empty cache) must not change a single bit.
    Fnv64 digest;
    const std::size_t n = std::min<std::size_t>(40, docs.size());
    for (std::size_t i = 0; i < n; ++i) {
      bool done = false;
      P2PPrediction pred;
      algo.Predict(requesters[i % requesters.size()], *docs[i],
                   [&](P2PPrediction p) {
                     pred = std::move(p);
                     done = true;
                   });
      env.RunUntilFlag(done, kMaxLoadSimSeconds);
      if (!done) {
        return Status::Internal("overload harness: eval did not quiesce");
      }
      digest.Mix(static_cast<uint64_t>(pred.success ? 1 : 0));
      digest.Mix(pred.tags.size());
      for (TagId t : pred.tags) digest.Mix(static_cast<uint64_t>(t));
      for (double s : pred.scores) digest.MixDouble(s);
      ++stats.load.offered;
      ++stats.load.completed;
      if (pred.success) {
        ++stats.load.ok;
      } else {
        ++stats.load.failed;
      }
    }
    stats.load.fingerprint = digest.state;
  }

  if (const StatefulP2PClassifier* stateful = sim->stateful) {
    if (const ServeQueueSet* serve = stateful->runtime().serve_queue()) {
      stats.requests_shed = serve->shed();
    }
    if (const PredictCacheSet* cache = stateful->runtime().predict_cache()) {
      stats.cache_hits = cache->hits();
      stats.cache_misses = cache->misses();
      stats.cache_stale = cache->stale();
    }
  }
  const NetworkStats& net_stats = env.net().stats();
  stats.give_ups = net_stats.give_ups();
  stats.overload_drops = net_stats.dropped(DropReason::kOverloadShed);
  return stats;
}

}  // namespace p2pdt
