// Byzantine-robustness suite: scripted adversary scheduling in the fault
// injector, model sanitation bounds, and end-to-end defended-vs-undefended
// poisoning runs — including the two bit-identity contracts (armed-but-idle
// plans and zero-adversary runs with the full defense stack enabled) and
// serial == parallel determinism with adversaries present.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "ml/sanitize.h"
#include "p2pdmt/byzantine.h"
#include "p2pdmt/experiment.h"
#include "p2psim/fault.h"

namespace p2pdt {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Adversary scheduling in the fault injector.

struct Fixture {
  Simulator sim;
  PhysicalNetwork net;
  FaultInjector fault;

  explicit Fixture(std::size_t nodes) : net(sim, {}), fault(sim, net) {
    net.AddNodes(nodes);
  }
};

TEST(AdversaryDirectoryTest, HonestBeforeArmAndOutsideWindow) {
  Fixture f(4);
  f.fault.AddAdversary(2, AdversaryBehavior::kLabelFlip, 5.0, 10.0);
  // Unarmed plans answer honest and install nothing.
  EXPECT_EQ(f.fault.BehaviorAt(2, 6.0), AdversaryBehavior::kHonest);
  EXPECT_EQ(f.net.adversaries(), nullptr);

  f.fault.Arm();
  EXPECT_EQ(f.net.adversaries(), &f.fault);
  EXPECT_EQ(f.fault.num_adversaries(), 1u);
  // Sleeper semantics: honest before the window opens, malicious inside
  // [start, end), honest again after.
  EXPECT_EQ(f.fault.BehaviorAt(2, 4.9), AdversaryBehavior::kHonest);
  EXPECT_EQ(f.fault.BehaviorAt(2, 5.0), AdversaryBehavior::kLabelFlip);
  EXPECT_EQ(f.fault.BehaviorAt(2, 9.9), AdversaryBehavior::kLabelFlip);
  EXPECT_EQ(f.fault.BehaviorAt(2, 10.0), AdversaryBehavior::kHonest);
  // Unscripted nodes are honest at every time.
  EXPECT_EQ(f.fault.BehaviorAt(3, 6.0), AdversaryBehavior::kHonest);
}

TEST(AdversaryDirectoryTest, NoAdversariesInstallsNoDirectory) {
  Fixture f(4);
  f.fault.AddBurstLoss(1.0, 2.0, 1.0);
  f.fault.Arm();
  EXPECT_EQ(f.net.adversaries(), nullptr);
}

TEST(AdversaryDirectoryTest, CorruptionSeedsStablePerNode) {
  Fixture a(4);
  Fixture b(4);
  // Seeds derive from the plan seed and node id only — identical across
  // injectors and calls (pure queries), distinct across nodes.
  EXPECT_EQ(a.fault.CorruptionSeed(1), b.fault.CorruptionSeed(1));
  EXPECT_EQ(a.fault.CorruptionSeed(1), a.fault.CorruptionSeed(1));
  EXPECT_NE(a.fault.CorruptionSeed(1), a.fault.CorruptionSeed(2));
}

TEST(AdversaryPlanTest, DeterministicFractionalSelection) {
  FaultPlanSpec a = MakeAdversaryPlan(10, AdversaryBehavior::kLabelFlip, 0.3,
                                      /*seed=*/777);
  ASSERT_EQ(a.adversaries.size(), 3u);
  for (const auto& adv : a.adversaries) {
    EXPECT_EQ(adv.behavior, AdversaryBehavior::kLabelFlip);
    EXPECT_LT(adv.node, 10u);
  }
  FaultPlanSpec b = MakeAdversaryPlan(10, AdversaryBehavior::kLabelFlip, 0.3,
                                      /*seed=*/777);
  ASSERT_EQ(b.adversaries.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.adversaries[i].node, b.adversaries[i].node);
  }
  // A positive fraction always poisons at least one peer.
  EXPECT_EQ(MakeAdversaryPlan(10, AdversaryBehavior::kVoteSpam, 0.01, 1)
                .adversaries.size(),
            1u);
  // Honest behavior or zero fraction scripts nothing.
  EXPECT_TRUE(MakeAdversaryPlan(10, AdversaryBehavior::kHonest, 0.5, 1)
                  .empty());
  EXPECT_TRUE(MakeAdversaryPlan(10, AdversaryBehavior::kLabelFlip, 0.0, 1)
                  .empty());
}

// ---------------------------------------------------------------------------
// Sanitation bounds.

TEST(SanitizeTest, RejectsNonFiniteAndOversizedValues) {
  EXPECT_EQ(SanitizeVector(SparseVector::FromPairs({{3, 1.0}})),
            ModelRejectReason::kNone);
  EXPECT_EQ(SanitizeVector(SparseVector::FromPairs({{3, kNan}})),
            ModelRejectReason::kNonFinite);
  EXPECT_EQ(SanitizeVector(SparseVector::FromPairs({{3, kInf}})),
            ModelRejectReason::kNonFinite);
  EXPECT_EQ(SanitizeVector(SparseVector::FromPairs({{3, 1.0e30}})),
            ModelRejectReason::kNormBound);
  EXPECT_EQ(
      SanitizeVector(SparseVector::FromPairs({{kSanitizeMaxDimension, 1.0}})),
      ModelRejectReason::kDimension);

  EXPECT_EQ(SanitizeLinear(LinearSvmModel(SparseVector(), kNan)),
            ModelRejectReason::kNonFinite);
}

TEST(SanitizeTest, KernelModelBounds) {
  SanitizeOptions opts;
  auto make = [](double alpha) {
    std::vector<SupportVector> svs;
    SupportVector sv;
    sv.x = SparseVector::FromPairs({{1, 1.0}});
    sv.y = 1.0;
    sv.alpha = alpha;
    svs.push_back(sv);
    return KernelSvmModel(Kernel::Linear(), std::move(svs), 0.0);
  };
  EXPECT_EQ(SanitizeKernelModel(make(0.5), opts), ModelRejectReason::kNone);
  EXPECT_EQ(SanitizeKernelModel(make(kNan), opts),
            ModelRejectReason::kNonFinite);
  EXPECT_EQ(SanitizeKernelModel(make(1.0e9), opts),
            ModelRejectReason::kNormBound);

  opts.max_support_vectors = 0;
  EXPECT_EQ(SanitizeKernelModel(make(0.5), opts),
            ModelRejectReason::kOversized);
}

TEST(SanitizeTest, OneVsAllTagMismatchAndCentroidCaps) {
  SanitizeOptions opts;
  std::vector<std::unique_ptr<BinaryClassifier>> models;
  models.push_back(std::make_unique<ConstantClassifier>(1.0));
  models.push_back(std::make_unique<ConstantClassifier>(-1.0));
  OneVsAllModel model(std::move(models));
  EXPECT_EQ(SanitizeOneVsAll(model, 2, opts), ModelRejectReason::kNone);
  EXPECT_EQ(SanitizeOneVsAll(model, 5, opts), ModelRejectReason::kTagMismatch);
  // Truncated uploads (fewer per-tag models than the corpus has tags) are
  // the dimension-mismatch adversary's signature.
  EXPECT_EQ(SanitizeOneVsAll(model, 1, opts), ModelRejectReason::kTagMismatch);

  std::vector<SparseVector> centroids = {SparseVector::FromPairs({{1, 1.0}})};
  EXPECT_EQ(SanitizeCentroids(centroids, opts), ModelRejectReason::kNone);
  centroids.push_back(SparseVector::FromPairs({{2, kNan}}));
  EXPECT_EQ(SanitizeCentroids(centroids, opts), ModelRejectReason::kNonFinite);
  opts.max_centroids = 1;
  EXPECT_EQ(SanitizeCentroids(centroids, opts), ModelRejectReason::kOversized);
}

TEST(SanitizeTest, ClampAccuracyFixesTrustHole) {
  // The PACE trust-hole fix: self-reported accuracies are clamped at every
  // receipt, so NaN (poisons every weighted vote) and out-of-range claims
  // cannot leak into vote weights. Identity on every honest value.
  EXPECT_DOUBLE_EQ(ClampAccuracy(kNan), 0.0);
  EXPECT_DOUBLE_EQ(ClampAccuracy(-0.25), 0.0);
  EXPECT_DOUBLE_EQ(ClampAccuracy(1.5), 1.0);
  EXPECT_DOUBLE_EQ(ClampAccuracy(kInf), 1.0);
  EXPECT_DOUBLE_EQ(ClampAccuracy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ClampAccuracy(0.73), 0.73);
  EXPECT_DOUBLE_EQ(ClampAccuracy(1.0), 1.0);
}

TEST(SanitizeTest, RejectedModelStatusCarriesReason) {
  Status s = RejectedModelStatus(ModelRejectReason::kNonFinite);
  EXPECT_EQ(s.code(), StatusCode::kRejectedModel);
  EXPECT_NE(s.ToString().find("non_finite"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end poisoning runs. Small IID corpus: the sweep isolates adversary
// effect from data heterogeneity, and IID holdouts keep every contributor
// pair evaluable by cross-validation (see DESIGN.md §10).

const VectorizedCorpus& Corpus() {
  static const VectorizedCorpus corpus = [] {
    CorpusOptions opt;
    opt.num_users = 10;
    opt.min_docs_per_user = 30;
    opt.max_docs_per_user = 40;
    opt.num_tags = 5;
    opt.vocabulary_size = 1000;
    opt.seed = 4242;
    return std::move(MakeVectorizedCorpus(opt)).value();
  }();
  return corpus;
}

ExperimentOptions BaseOptions(AlgorithmType algo, bool defended) {
  ExperimentOptions opt;
  opt.env.num_peers = 10;
  opt.algorithm = algo;
  opt.max_test_documents = 40;
  opt.distribution.cls = ClassDistribution::kIid;
  opt.cempar.regions_per_tag = 3;  // >= 3 votes for the median trim
  opt.cempar.sanitize.enabled = defended;
  opt.pace.sanitize.enabled = defended;
  opt.cempar.reputation.enabled = defended;
  opt.pace.reputation.enabled = defended;
  return opt;
}

ExperimentResult RunWith(AlgorithmType algo, bool defended,
                         FaultPlanSpec plan = {}) {
  ExperimentOptions opt = BaseOptions(algo, defended);
  opt.env.fault = std::move(plan);
  Result<ExperimentResult> r = RunExperiment(Corpus(), opt);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Cached clean-run baselines (one per algorithm and arm).
const ExperimentResult& Clean(AlgorithmType algo, bool defended) {
  static ExperimentResult cache[2][2];
  static bool have[2][2] = {{false, false}, {false, false}};
  int a = algo == AlgorithmType::kCempar ? 0 : 1;
  int d = defended ? 1 : 0;
  if (!have[a][d]) {
    cache[a][d] = RunWith(algo, defended);
    have[a][d] = true;
  }
  return cache[a][d];
}

void ExpectBitIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_DOUBLE_EQ(a.metrics.micro_f1, b.metrics.micro_f1);
  EXPECT_DOUBLE_EQ(a.metrics.macro_f1, b.metrics.macro_f1);
  EXPECT_EQ(a.train_bytes, b.train_bytes);
  EXPECT_EQ(a.predict_bytes, b.predict_bytes);
  EXPECT_DOUBLE_EQ(a.train_sim_seconds, b.train_sim_seconds);
}

TEST(ByzantineE2eTest, FullDefenseIsBitIdenticalWithoutAdversaries) {
  // Acceptance bar: 0 adversaries + the whole defense stack enabled changes
  // nothing — F1, traffic and simulated time are bit-identical, because
  // every defense is a gate that never triggers for honest peers.
  for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
    ExpectBitIdentical(Clean(algo, true), Clean(algo, false));
  }
  EXPECT_EQ(Clean(AlgorithmType::kCempar, true).models_rejected, 0u);
  EXPECT_EQ(Clean(AlgorithmType::kPace, true).quarantined_pairs, 0u);
}

TEST(ByzantineE2eTest, ArmedButIdleSleeperIsBitIdentical) {
  // A sleeper whose window never opens during the run must leave the whole
  // simulation untouched, even though the plan is armed and the directory
  // installed.
  FaultPlanSpec plan =
      MakeAdversaryPlan(10, AdversaryBehavior::kGarbageModel, 0.3, 777);
  for (auto& adv : plan.adversaries) adv.start = 1.0e8;
  ExperimentResult sleeper = RunWith(AlgorithmType::kCempar, true, plan);
  ExpectBitIdentical(Clean(AlgorithmType::kCempar, true), sleeper);
  EXPECT_EQ(sleeper.models_rejected, 0u);
}

TEST(ByzantineE2eTest, CemparDefenseRecoversLabelFlip) {
  FaultPlanSpec plan =
      MakeAdversaryPlan(10, AdversaryBehavior::kLabelFlip, 0.3, 777);
  ExperimentResult defended = RunWith(AlgorithmType::kCempar, true, plan);
  ExperimentResult undefended = RunWith(AlgorithmType::kCempar, false, plan);
  const ExperimentResult& clean = Clean(AlgorithmType::kCempar, true);

  // Acceptance: <= 5-point macro-F1 drop defended, strictly worse without.
  EXPECT_GE(defended.metrics.macro_f1, clean.metrics.macro_f1 - 0.05);
  EXPECT_GT(defended.metrics.macro_f1, undefended.metrics.macro_f1);
  // The defense visibly engaged: distrusted uploads refused, pairs
  // quarantined, trust observed.
  EXPECT_GT(defended.models_rejected, 0u);
  EXPECT_GT(defended.quarantined_pairs, 0u);
  EXPECT_GT(defended.trust_observations, 0u);
  EXPECT_EQ(undefended.models_rejected, 0u);
}

TEST(ByzantineE2eTest, SanitationRejectsGarbageModels) {
  FaultPlanSpec plan =
      MakeAdversaryPlan(10, AdversaryBehavior::kGarbageModel, 0.3, 777);
  for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
    ExperimentResult defended = RunWith(algo, true, plan);
    ExperimentResult undefended = RunWith(algo, false, plan);
    const ExperimentResult& clean = Clean(algo, true);
    EXPECT_GE(defended.metrics.macro_f1, clean.metrics.macro_f1 - 0.05)
        << AlgorithmTypeToString(algo);
    EXPECT_GT(defended.metrics.macro_f1, undefended.metrics.macro_f1)
        << AlgorithmTypeToString(algo);
    EXPECT_GT(defended.models_rejected, 0u) << AlgorithmTypeToString(algo);
  }
}

TEST(ByzantineE2eTest, PaceQuarantinesFlippedContributors) {
  FaultPlanSpec plan =
      MakeAdversaryPlan(10, AdversaryBehavior::kLabelFlip, 0.3, 777);
  ExperimentResult defended = RunWith(AlgorithmType::kPace, true, plan);
  const ExperimentResult& clean = Clean(AlgorithmType::kPace, true);
  EXPECT_GE(defended.metrics.macro_f1, clean.metrics.macro_f1 - 0.05);
  EXPECT_GT(defended.quarantined_pairs, 0u);
}

TEST(ByzantineE2eTest, SerialEqualsParallelWithAdversaries) {
  // Determinism survives the adversarial path: corruption seeds key off
  // plan identity, trust updates run on the driver thread, and surviving
  // votes are summed in arrival order.
  FaultPlanSpec plan =
      MakeAdversaryPlan(10, AdversaryBehavior::kLabelFlip, 0.2, 777);
  FaultPlanSpec garbage =
      MakeAdversaryPlan(10, AdversaryBehavior::kGarbageModel, 0.2, 778);
  plan.adversaries.insert(plan.adversaries.end(), garbage.adversaries.begin(),
                          garbage.adversaries.end());
  for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
    ThreadPool::SetGlobalConcurrency(1);
    ExperimentResult serial = RunWith(algo, true, plan);
    ThreadPool::SetGlobalConcurrency(4);
    ExperimentResult parallel = RunWith(algo, true, plan);
    ExpectBitIdentical(serial, parallel);
    EXPECT_EQ(serial.models_rejected, parallel.models_rejected);
    EXPECT_EQ(serial.quarantined_pairs, parallel.quarantined_pairs);
  }
  ThreadPool::SetGlobalConcurrency(0);
}

}  // namespace
}  // namespace p2pdt
