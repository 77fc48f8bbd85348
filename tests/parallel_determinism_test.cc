// Asserts the core guarantee of the parallel training engine: training at
// global concurrency 1 and at 4 produces bit-identical models and
// predictions. Task RNG streams are keyed by (peer, tag) — data identity —
// never by thread identity, and no floating-point reduction crosses task
// boundaries, so exact equality (not approximate) is the contract.

#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "corpus/vectorize.h"
#include "ml/kmeans.h"
#include "ml/linear_svm.h"
#include "ml/multilabel.h"
#include "p2pdmt/data_distribution.h"
#include "p2pdmt/environment.h"
#include "p2pml/cempar.h"
#include "p2pml/pace.h"

namespace p2pdt {
namespace {

// A small generated corpus shared by every case in this binary.
const VectorizedCorpus& Corpus() {
  static const VectorizedCorpus corpus = [] {
    CorpusOptions opt;
    opt.num_users = 24;
    opt.min_docs_per_user = 12;
    opt.max_docs_per_user = 20;
    opt.num_tags = 6;
    opt.vocabulary_size = 500;
    opt.seed = 4242;
    Result<VectorizedCorpus> r = MakeVectorizedCorpus(opt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }();
  return corpus;
}

std::vector<MultiLabelDataset> PeerPartition(std::size_t num_peers) {
  DataDistributionOptions opt;
  opt.cls = ClassDistribution::kByUser;
  Result<std::vector<MultiLabelDataset>> r = DistributeData(
      Corpus().dataset, num_peers, opt, &Corpus().doc_user);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

std::vector<SparseVector> ProbeVectors(std::size_t n) {
  std::vector<SparseVector> probes;
  const auto& examples = Corpus().dataset.examples();
  for (std::size_t i = 0; i < examples.size() && probes.size() < n;
       i += examples.size() / n + 1) {
    probes.push_back(examples[i].x);
  }
  return probes;
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { ThreadPool::SetGlobalConcurrency(4); }
  void TearDown() override { ThreadPool::SetGlobalConcurrency(0); }
};

TEST_F(ParallelDeterminismTest, OneVsAllScoresIdentical1VsNThreads) {
  const MultiLabelDataset& data = Corpus().dataset;
  IndexedBinaryTrainer trainer =
      [](const std::vector<Example>& examples, TagId tag)
      -> Result<std::unique_ptr<BinaryClassifier>> {
    LinearSvmOptions opt;
    opt.seed = DeriveSeed(7, 0, tag);
    Result<LinearSvmModel> model = TrainLinearSvm(examples, opt);
    if (!model.ok()) return model.status();
    return std::unique_ptr<BinaryClassifier>(
        std::make_unique<LinearSvmModel>(std::move(model).value()));
  };

  ThreadPool::SetGlobalConcurrency(1);
  Result<OneVsAllModel> a = TrainOneVsAll(data, trainer);
  ThreadPool::SetGlobalConcurrency(4);
  Result<OneVsAllModel> b = TrainOneVsAll(data, trainer);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->num_tags(), b->num_tags());
  for (const SparseVector& x : ProbeVectors(25)) {
    EXPECT_EQ(a->Scores(x), b->Scores(x));  // exact double equality
    EXPECT_EQ(a->PredictTags(x), b->PredictTags(x));
  }
}

TEST_F(ParallelDeterminismTest, KMeansIdentical1VsNThreads) {
  std::vector<SparseVector> points;
  for (const auto& ex : Corpus().dataset.examples()) points.push_back(ex.x);
  ASSERT_GE(points.size() * 16, 4096u) << "below the parallel gate";

  KMeansOptions opt;
  opt.k = 16;
  opt.seed = 11;

  ThreadPool::SetGlobalConcurrency(1);
  Result<KMeansResult> a = KMeansCluster(points, opt);
  ThreadPool::SetGlobalConcurrency(4);
  Result<KMeansResult> b = KMeansCluster(points, opt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->iterations, b->iterations);
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_EQ(a->inertia, b->inertia);  // exact: reductions stay serial
  ASSERT_EQ(a->centroids.size(), b->centroids.size());
  for (std::size_t c = 0; c < a->centroids.size(); ++c) {
    EXPECT_EQ(a->centroids[c], b->centroids[c]);
  }
}

TEST_F(ParallelDeterminismTest, CemparTrainIdentical1VsNThreads) {
  // Under loss every send draws the network's loss stream, so which uploads
  // need retries — and when training ends — depends on the order the grid's
  // uploads are issued in, and the (default) RBF fits take long enough for
  // the threads' claims to interleave. The parallel run must still issue
  // the uploads in exactly the serial order. The homes then cascade
  // concurrently; at two regions per tag there are 12 of them.
  auto run = [&](std::size_t threads, std::size_t regions_per_tag) {
    ThreadPool::SetGlobalConcurrency(threads);
    EnvironmentOptions eo;
    eo.num_peers = 12;
    eo.physical.loss_rate = 0.1;
    auto env = std::move(Environment::Create(eo)).value();
    CemparOptions opt;
    opt.reliable_transport = true;
    opt.regions_per_tag = regions_per_tag;
    Cempar cempar(env->sim(), env->net(), *env->chord(), opt);
    EXPECT_TRUE(
        cempar.Setup(PeerPartition(12), Corpus().dataset.num_tags()).ok());
    bool done = false;
    double trained_at = 0.0;
    cempar.Train([&](Status s) {
      EXPECT_TRUE(s.ok());
      trained_at = env->sim().Now();
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);
    const uint64_t train_messages = env->net().stats().messages_sent();

    std::vector<std::vector<double>> scores;
    for (const SparseVector& x : ProbeVectors(10)) {
      bool pdone = false;
      cempar.Predict(3, x, [&](P2PPrediction p) {
        EXPECT_TRUE(p.success);
        scores.push_back(std::move(p.scores));
        pdone = true;
      });
      env->RunUntilFlag(pdone, 3600);
      EXPECT_TRUE(pdone);
    }
    return std::make_tuple(scores, cempar.TotalRegionalSupportVectors(),
                           cempar.HomeOwners(), trained_at, train_messages);
  };
  for (std::size_t regions_per_tag : {1, 2}) {
    SCOPED_TRACE(regions_per_tag);
    auto [scores1, svs1, owners1, at1, messages1] = run(1, regions_per_tag);
    auto [scores4, svs4, owners4, at4, messages4] = run(4, regions_per_tag);
    EXPECT_EQ(owners1.size(), 6 * regions_per_tag);
    EXPECT_EQ(svs1, svs4);
    EXPECT_EQ(owners1, owners4);
    EXPECT_EQ(scores1, scores4);  // exact double equality
    EXPECT_EQ(at1, at4);
    EXPECT_EQ(messages1, messages4);
  }
}

TEST_F(ParallelDeterminismTest, PaceTrainIdentical1VsNThreads) {
  auto run = [&](std::size_t threads) {
    ThreadPool::SetGlobalConcurrency(threads);
    EnvironmentOptions eo;
    eo.num_peers = 12;
    auto env = std::move(Environment::Create(eo)).value();
    Pace pace(env->sim(), env->net(), env->overlay());
    EXPECT_TRUE(
        pace.Setup(PeerPartition(12), Corpus().dataset.num_tags()).ok());
    bool done = false;
    pace.Train([&](Status s) {
      EXPECT_TRUE(s.ok());
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);

    std::vector<std::vector<double>> scores;
    std::vector<std::vector<TagId>> tags;
    for (const SparseVector& x : ProbeVectors(10)) {
      bool pdone = false;
      pace.Predict(5, x, [&](P2PPrediction p) {
        EXPECT_TRUE(p.success);
        scores.push_back(std::move(p.scores));
        tags.push_back(std::move(p.tags));
        pdone = true;
      });
      env->RunUntilFlag(pdone, 3600);
      EXPECT_TRUE(pdone);
    }
    return std::make_pair(scores, tags);
  };
  auto [scores1, tags1] = run(1);
  auto [scores4, tags4] = run(4);
  EXPECT_EQ(tags1, tags4);
  EXPECT_EQ(scores1, scores4);  // exact double equality
}

}  // namespace
}  // namespace p2pdt
