// End-to-end overload-robustness properties:
//  - versioned prediction cache: a cached answer is served without network
//    traffic, and no stale answer outlives a model-version bump or its TTL
//    (both protocols);
//  - the armed load generator is bit-deterministic across thread counts
//    (serial == parallel);
//  - idle overload machinery (queues, admission, cache, batching) changes
//    no prediction: disarmed fingerprints match the pure-default config.

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "p2pdmt/overload.h"

namespace p2pdt {
namespace {

const VectorizedCorpus& SmallCorpus() {
  static const VectorizedCorpus corpus = [] {
    CorpusOptions opt;
    opt.num_users = 12;
    opt.min_docs_per_user = 12;
    opt.max_docs_per_user = 20;
    opt.num_tags = 4;
    opt.vocabulary_size = 600;
    opt.seed = 20100913;
    Result<VectorizedCorpus> r = MakeVectorizedCorpus(opt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }();
  return corpus;
}

/// Trained classifier + environment, built the same way the harness builds
/// them, with direct access for fine-grained cache assertions.
struct Trained {
  std::unique_ptr<Environment> env;
  std::unique_ptr<P2PClassifier> owned;
  StatefulP2PClassifier* algo = nullptr;
  CorpusSplit split;

  static Trained Make(AlgorithmType algorithm,
                      const PredictCacheOptions& cache) {
    const VectorizedCorpus& corpus = SmallCorpus();
    Trained t;
    t.split = SplitCorpus(corpus, 0.2, 777);

    ExperimentOptions algo_options;
    algo_options.algorithm = algorithm;
    algo_options.env.num_peers = corpus.num_users;
    algo_options.env.observe.metrics = true;
    algo_options.pace.predict_cache = cache;
    algo_options.cempar.predict_cache = cache;

    auto shared = std::make_shared<const MultiLabelDataset>(t.split.train);
    DataDistributionOptions dist;
    dist.cls = ClassDistribution::kByUser;
    Result<std::vector<std::vector<uint32_t>>> indices = DistributeIndices(
        *shared, corpus.num_users, dist, &t.split.train_user);
    EXPECT_TRUE(indices.ok());
    std::vector<DatasetShard> shards;
    for (std::size_t p = 0; p < corpus.num_users; ++p) {
      shards.emplace_back(shared, std::move((*indices)[p]));
    }
    Result<SimulatedClassifier> sim = SetupClassifier(
        algo_options, std::move(shards), corpus.dataset.num_tags());
    EXPECT_TRUE(sim.ok());
    t.env = std::move(sim->env);
    t.owned = std::move(sim->algo);
    t.algo = sim->stateful;

    bool done = false;
    t.algo->Train([&](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      done = true;
    });
    t.env->RunUntilFlag(done, 3600.0);
    EXPECT_TRUE(done);
    return t;
  }

  P2PPrediction PredictSync(NodeId requester, const SparseVector& x) {
    P2PPrediction out;
    bool done = false;
    algo->Predict(requester, x, [&](P2PPrediction p) {
      out = std::move(p);
      done = true;
    });
    env->RunUntilFlag(done, 3600.0);
    EXPECT_TRUE(done);
    return out;
  }

  const PredictCacheSet* cache() const {
    return algo->runtime().predict_cache();
  }
};

PredictCacheOptions CacheOn(double ttl = 1e9) {
  PredictCacheOptions opt;
  opt.enabled = true;
  opt.capacity = 64;
  opt.ttl_seconds = ttl;
  return opt;
}

class OverloadCacheTest : public ::testing::TestWithParam<AlgorithmType> {};

TEST_P(OverloadCacheTest, RepeatLookupIsServedFromCache) {
  Trained t = Trained::Make(GetParam(), CacheOn());
  const SparseVector& doc = t.split.test[0].x;

  P2PPrediction first = t.PredictSync(0, doc);
  ASSERT_TRUE(first.success);
  EXPECT_FALSE(first.cached);

  const uint64_t messages_before = t.env->net().stats().messages_sent();
  P2PPrediction second = t.PredictSync(0, doc);
  ASSERT_TRUE(second.success);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.tags, first.tags);
  EXPECT_EQ(second.scores, first.scores);
  // A cache hit costs zero network traffic.
  EXPECT_EQ(t.env->net().stats().messages_sent(), messages_before);
  ASSERT_NE(t.cache(), nullptr);
  EXPECT_EQ(t.cache()->hits(), 1u);

  // Another requester has its own (cold) cache.
  P2PPrediction other = t.PredictSync(1, doc);
  ASSERT_TRUE(other.success);
  EXPECT_FALSE(other.cached);
}

TEST_P(OverloadCacheTest, VersionBumpInvalidatesCachedAnswers) {
  Trained t = Trained::Make(GetParam(), CacheOn());
  const SparseVector& doc = t.split.test[0].x;

  ASSERT_TRUE(t.PredictSync(0, doc).success);
  ASSERT_TRUE(t.PredictSync(0, doc).cached);

  // Refresh some peer's model: the publish epoch bumps, so every cached
  // answer predates the current model generation and must not be served.
  bool refreshed = false;
  t.algo->RefreshPeer(1, [&] { refreshed = true; });
  t.env->RunUntilFlag(refreshed, 3600.0);
  ASSERT_TRUE(refreshed);

  P2PPrediction after = t.PredictSync(0, doc);
  ASSERT_TRUE(after.success);
  EXPECT_FALSE(after.cached);
  ASSERT_NE(t.cache(), nullptr);
  EXPECT_GE(t.cache()->stale(), 1u);

  // The fresh answer re-enters the cache under the new epoch.
  EXPECT_TRUE(t.PredictSync(0, doc).cached);
}

TEST_P(OverloadCacheTest, TtlBoundsCacheLifetime) {
  // With a TTL shorter than one prediction round-trip, nothing is ever
  // served stale from the cache.
  Trained t = Trained::Make(GetParam(), CacheOn(/*ttl=*/1e-9));
  const SparseVector& doc = t.split.test[0].x;
  ASSERT_TRUE(t.PredictSync(0, doc).success);
  P2PPrediction second = t.PredictSync(0, doc);
  ASSERT_TRUE(second.success);
  EXPECT_FALSE(second.cached);
  ASSERT_NE(t.cache(), nullptr);
  EXPECT_GE(t.cache()->stale(), 1u);
  EXPECT_EQ(t.cache()->hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, OverloadCacheTest,
                         ::testing::Values(AlgorithmType::kPace,
                                           AlgorithmType::kCempar),
                         [](const ::testing::TestParamInfo<AlgorithmType>& i) {
                           return std::string(AlgorithmTypeToString(i.param));
                         });

OverloadExperimentOptions ArmedOptions(AlgorithmType algorithm) {
  OverloadExperimentOptions opt;
  opt.algorithm = algorithm;
  opt.env.num_peers = SmallCorpus().num_users;
  opt.distribution.cls = ClassDistribution::kByUser;
  opt.loadgen.enabled = true;
  opt.loadgen.sessions = SmallCorpus().num_users;
  opt.loadgen.min_docs = 3;
  opt.loadgen.max_docs = 5;
  opt.loadgen.arrival_rate = 12.0;
  opt.loadgen.max_retries = 1;
  FlashCrowdBurst burst;
  burst.start = 1.0;
  burst.duration = 1.5;
  burst.rate_multiplier = 6.0;
  burst.hot_fraction = 0.9;
  burst.hot_docs = 4;
  opt.loadgen.bursts = {burst};

  auto defend = [](ServeOptions& serve) {
    serve.enabled = true;
    serve.service_rate = 4.0;
    serve.admission_control = true;
    serve.max_depth = 16;
    serve.max_wait = 0.5;
    serve.retry_after = 0.25;
  };
  defend(opt.pace.serve);
  defend(opt.cempar.serve);
  opt.pace.predict_cache = CacheOn();
  opt.cempar.predict_cache = CacheOn();
  opt.cempar.batch_predictions = true;
  opt.cempar.reliable_transport = true;
  return opt;
}

class OverloadDeterminismTest
    : public ::testing::TestWithParam<AlgorithmType> {
 protected:
  void TearDown() override { ThreadPool::SetGlobalConcurrency(0); }
};

TEST_P(OverloadDeterminismTest, ArmedSerialEqualsSharded) {
  const OverloadExperimentOptions opt = ArmedOptions(GetParam());
  ThreadPool::SetGlobalConcurrency(1);
  Result<OverloadRunStats> a = RunOverloadExperiment(SmallCorpus(), opt);
  ThreadPool::SetGlobalConcurrency(4);
  Result<OverloadRunStats> b = RunOverloadExperiment(SmallCorpus(), opt);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GT(a->load.offered, 0u);
  EXPECT_EQ(a->load.offered, b->load.offered);
  EXPECT_EQ(a->load.completed, b->load.completed);
  EXPECT_EQ(a->load.fingerprint, b->load.fingerprint);
  EXPECT_EQ(a->requests_shed, b->requests_shed);
  EXPECT_EQ(a->cache_hits, b->cache_hits);
}

TEST_P(OverloadDeterminismTest, IdleMachineryChangesNoPrediction) {
  // Pure default: no serve queues, no cache, no batching.
  OverloadExperimentOptions plain;
  plain.algorithm = GetParam();
  plain.env.num_peers = SmallCorpus().num_users;
  plain.distribution.cls = ClassDistribution::kByUser;
  plain.loadgen.enabled = false;

  // Full machinery constructed but idle: finite queues with admission
  // control, an empty cache, batching — and a sequential disarmed eval
  // that never contends.
  OverloadExperimentOptions armed = ArmedOptions(GetParam());
  armed.loadgen.enabled = false;
  armed.cempar.reliable_transport = plain.cempar.reliable_transport;

  Result<OverloadRunStats> a = RunOverloadExperiment(SmallCorpus(), plain);
  Result<OverloadRunStats> b = RunOverloadExperiment(SmallCorpus(), armed);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GT(a->load.offered, 0u);
  EXPECT_EQ(a->load.fingerprint, b->load.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, OverloadDeterminismTest,
                         ::testing::Values(AlgorithmType::kPace,
                                           AlgorithmType::kCempar),
                         [](const ::testing::TestParamInfo<AlgorithmType>& i) {
                           return std::string(AlgorithmTypeToString(i.param));
                         });

}  // namespace
}  // namespace p2pdt
