#include "p2pdmt/experiment.h"

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

const VectorizedCorpus& SharedCorpus() {
  static const VectorizedCorpus corpus = [] {
    CorpusOptions opt;
    opt.num_users = 12;
    opt.min_docs_per_user = 40;
    opt.max_docs_per_user = 50;
    opt.num_tags = 6;
    opt.vocabulary_size = 1200;
    opt.seed = 2024;
    return std::move(MakeVectorizedCorpus(opt)).value();
  }();
  return corpus;
}

ExperimentOptions BaseOptions(AlgorithmType algo) {
  ExperimentOptions opt;
  opt.env.num_peers = 12;
  opt.algorithm = algo;
  opt.max_test_documents = 80;
  opt.distribution.cls = ClassDistribution::kByUser;
  return opt;
}

TEST(SplitCorpusTest, FractionAndUserParallelism) {
  CorpusSplit split = SplitCorpus(SharedCorpus(), 0.2, 1);
  std::size_t total = SharedCorpus().dataset.size();
  EXPECT_NEAR(static_cast<double>(split.train.size()) / total, 0.2, 0.01);
  EXPECT_EQ(split.train.size() + split.test.size(), total);
  EXPECT_EQ(split.train_user.size(), split.train.size());
  EXPECT_EQ(split.test_user.size(), split.test.size());
}

TEST(SplitCorpusTest, DeterministicInSeed) {
  CorpusSplit a = SplitCorpus(SharedCorpus(), 0.3, 7);
  CorpusSplit b = SplitCorpus(SharedCorpus(), 0.3, 7);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].x, b.train[i].x);
  }
}

TEST(MakeClassifierTest, CemparNeedsChord) {
  ExperimentOptions opt = BaseOptions(AlgorithmType::kCempar);
  opt.env.overlay = OverlayType::kUnstructured;
  auto env = std::move(Environment::Create(opt.env)).value();
  EXPECT_EQ(MakeClassifier(*env, opt).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MakeClassifierTest, AllAlgorithmsConstructible) {
  for (AlgorithmType a :
       {AlgorithmType::kCempar, AlgorithmType::kPace,
        AlgorithmType::kCentralized, AlgorithmType::kLocalOnly,
        AlgorithmType::kModelAvg}) {
    ExperimentOptions opt = BaseOptions(a);
    auto env = std::move(Environment::Create(opt.env)).value();
    Result<std::unique_ptr<P2PClassifier>> algo = MakeClassifier(*env, opt);
    ASSERT_TRUE(algo.ok()) << AlgorithmTypeToString(a);
    EXPECT_EQ(algo.value()->name(), AlgorithmTypeToString(a));
  }
}

TEST(ExperimentTest, CollaborationBeatsLocalOnly) {
  Result<ExperimentResult> local =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kLocalOnly));
  Result<ExperimentResult> cempar =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kCempar));
  Result<ExperimentResult> pace =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kPace));
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(cempar.ok());
  ASSERT_TRUE(pace.ok());
  EXPECT_GT(cempar->metrics.micro_f1, local->metrics.micro_f1 + 0.15);
  EXPECT_GT(pace->metrics.micro_f1, local->metrics.micro_f1 + 0.15);
}

TEST(ExperimentTest, CemparTracksCentralizedAccuracy) {
  // The paper's headline: "classification accuracy comparable to
  // centralized approaches".
  Result<ExperimentResult> cempar =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kCempar));
  Result<ExperimentResult> central = RunExperiment(
      SharedCorpus(), BaseOptions(AlgorithmType::kCentralized));
  ASSERT_TRUE(cempar.ok() && central.ok());
  EXPECT_GT(central->metrics.micro_f1, 0.85);
  EXPECT_GE(cempar->metrics.micro_f1, central->metrics.micro_f1 - 0.08);
}

TEST(ExperimentTest, CommunicationShapes) {
  Result<ExperimentResult> cempar =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kCempar));
  Result<ExperimentResult> pace =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kPace));
  Result<ExperimentResult> local =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kLocalOnly));
  ASSERT_TRUE(cempar.ok() && pace.ok() && local.ok());
  // CEMPaR trains much cheaper than PACE's broadcast; PACE predicts free.
  EXPECT_LT(cempar->train_bytes, pace->train_bytes / 4);
  EXPECT_EQ(pace->predict_bytes, 0u);
  EXPECT_GT(cempar->predict_bytes, 0u);
  EXPECT_EQ(local->train_bytes, 0u);
}

TEST(ExperimentTest, ResultRatiosComputed) {
  Result<ExperimentResult> r =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kCempar));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_peers, 12u);
  EXPECT_EQ(r->test_documents, 80u);
  EXPECT_NEAR(r->train_bytes_per_peer(),
              static_cast<double>(r->train_bytes) / 12.0, 1e-9);
  EXPECT_GT(r->predict_bytes_per_doc(), 0.0);
  EXPECT_NE(r->ToString().find("cempar"), std::string::npos);
}

TEST(ExperimentTest, ChurnExperimentCompletes) {
  ExperimentOptions opt = BaseOptions(AlgorithmType::kCempar);
  opt.env.churn = ChurnType::kExponential;
  opt.env.churn_mean_online_sec = 60.0;
  opt.env.churn_mean_offline_sec = 15.0;
  opt.warmup_sim_seconds = 5.0;
  Result<ExperimentResult> r = RunExperiment(SharedCorpus(), opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->churn, "exponential");
  // Quality may degrade but the protocol must still answer most queries.
  EXPECT_LT(r->failed_predictions, r->test_documents / 2);
}

TEST(ExperimentTest, TrainSimSecondsIsTheQuiescenceTime) {
  // These 12 peers quiesce inside the first 1 s slice RunUntilFlag steps;
  // the result must carry that moment, not the slice end.
  for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
    Result<ExperimentResult> r =
        RunExperiment(SharedCorpus(), BaseOptions(algo));
    ASSERT_TRUE(r.ok());
    EXPECT_GT(r->train_sim_seconds, 0.0) << AlgorithmTypeToString(algo);
    EXPECT_LT(r->train_sim_seconds, 1.0) << AlgorithmTypeToString(algo);
  }
}

TEST(ExperimentTest, DeterministicInSeed) {
  ExperimentOptions opt = BaseOptions(AlgorithmType::kPace);
  Result<ExperimentResult> a = RunExperiment(SharedCorpus(), opt);
  Result<ExperimentResult> b = RunExperiment(SharedCorpus(), opt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->metrics.micro_f1, b->metrics.micro_f1);
  EXPECT_EQ(a->train_bytes, b->train_bytes);
}

}  // namespace
}  // namespace p2pdt
