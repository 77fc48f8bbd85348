// Scale regression: the parallel simulation path must be bit-identical to
// the serial one. A 10k-peer experiment runs once at global concurrency 1
// and once at 4; macro-F1, per-phase message counts and the deterministic
// slice of the metrics snapshot must match exactly. Fault and adversary
// plans are armed with windows that never open, pinning the contract that
// an idle defense/fault stack leaves baselines untouched at scale.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "corpus/vectorize.h"
#include "p2pdmt/evaluation.h"
#include "p2pdmt/experiment.h"
#include "p2psim/fault.h"

namespace p2pdt {
namespace {

// A compact generated corpus shared by every case in this binary; small
// document counts keep the 10k-peer runs fast while the *network* is what
// scales.
const VectorizedCorpus& Corpus() {
  static const VectorizedCorpus corpus = [] {
    CorpusOptions opt;
    opt.num_users = 32;
    opt.min_docs_per_user = 8;
    opt.max_docs_per_user = 14;
    opt.num_tags = 6;
    opt.vocabulary_size = 400;
    opt.seed = 90210;
    Result<VectorizedCorpus> r = MakeVectorizedCorpus(opt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }();
  return corpus;
}

/// The deterministic slice of a metrics snapshot: every counter/gauge value
/// plus histogram observation *counts*. Histogram sums are excluded — the
/// phase_seconds families observe wall-clock time, which legitimately
/// differs across thread counts.
std::string DeterministicFingerprint(const MetricsSnapshot& snap) {
  std::ostringstream out;
  for (const MetricsSnapshot::Entry& e : snap.entries) {
    out << e.key() << '|' << static_cast<int>(e.kind) << '|';
    if (e.kind == MetricsSnapshot::Kind::kHistogram) {
      out << e.count;
    } else {
      out << e.value;
    }
    out << '\n';
  }
  return out.str();
}

/// Arms fault + adversary machinery with windows far past the run horizon:
/// the directory and injector are installed and consulted, but never fire.
void ArmIdleFaultsAndAdversaries(ExperimentOptions& opt) {
  FaultPlanSpec::BurstLoss burst;
  burst.start = 1e17;
  burst.end = 2e17;
  burst.drop_prob = 1.0;
  opt.env.fault.burst_loss.push_back(burst);
  FaultPlanSpec::Adversary sleeper;
  sleeper.node = 3;
  sleeper.behavior = AdversaryBehavior::kLabelFlip;
  sleeper.start = 1e17;
  sleeper.end = 2e17;
  opt.env.fault.adversaries.push_back(sleeper);
}

struct RunFingerprint {
  double macro_f1 = 0.0;
  double micro_f1 = 0.0;
  uint64_t train_messages = 0;
  uint64_t train_bytes = 0;
  uint64_t predict_messages = 0;
  uint64_t predict_bytes = 0;
  std::size_t failed = 0;
  double coverage = -1.0;
  std::string metrics;
  CostCounts train_cost;
  CostCounts predict_cost;

  bool operator==(const RunFingerprint& o) const {
    return macro_f1 == o.macro_f1 && micro_f1 == o.micro_f1 &&
           train_messages == o.train_messages && train_bytes == o.train_bytes &&
           predict_messages == o.predict_messages &&
           predict_bytes == o.predict_bytes && failed == o.failed &&
           coverage == o.coverage && metrics == o.metrics &&
           train_cost == o.train_cost && predict_cost == o.predict_cost;
  }
};

RunFingerprint Fingerprint(const ExperimentResult& r) {
  RunFingerprint f;
  f.macro_f1 = r.metrics.macro_f1;
  f.micro_f1 = r.metrics.micro_f1;
  f.train_messages = r.train_messages;
  f.train_bytes = r.train_bytes;
  f.predict_messages = r.predict_messages;
  f.predict_bytes = r.predict_bytes;
  f.failed = r.failed_predictions;
  f.coverage = r.model_coverage;
  f.metrics = DeterministicFingerprint(r.observability);
  f.train_cost = r.train_cost;
  f.predict_cost = r.predict_cost;
  return f;
}

ExperimentOptions ScaleOptions(AlgorithmType algo, std::size_t peers) {
  ExperimentOptions opt;
  opt.algorithm = algo;
  opt.env.num_peers = peers;
  opt.env.overlay =
      algo == AlgorithmType::kCempar ? OverlayType::kChord
                                     : OverlayType::kUnstructured;
  opt.env.observe.metrics = true;
  // The cost ledger joins the fingerprint: op counts must also be
  // bit-identical at any thread count.
  opt.env.observe.cost_ledger = true;
  opt.distribution.cls = ClassDistribution::kByUser;
  opt.max_test_documents = 40;
  opt.max_eval_peers = 64;  // sampled evaluation at scale
  opt.seed = 1337;
  ArmIdleFaultsAndAdversaries(opt);
  return opt;
}

RunFingerprint RunWith(const ExperimentOptions& opt, std::size_t threads) {
  ThreadPool::SetGlobalConcurrency(threads);
  Result<ExperimentResult> r = RunExperiment(Corpus(), opt);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return Fingerprint(r.value());
}

class ScaleDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { ThreadPool::SetGlobalConcurrency(4); }
  void TearDown() override { ThreadPool::SetGlobalConcurrency(0); }
};

TEST_F(ScaleDeterminismTest, Pace10kSerialEqualsSharded) {
  ExperimentOptions opt = ScaleOptions(AlgorithmType::kPace, 10000);
  RunFingerprint serial = RunWith(opt, /*threads=*/1);
  RunFingerprint sharded = RunWith(opt, /*threads=*/4);
  EXPECT_TRUE(serial == sharded);
  EXPECT_EQ(serial.metrics, sharded.metrics);
  EXPECT_EQ(serial.macro_f1, sharded.macro_f1);
  EXPECT_EQ(serial.train_messages, sharded.train_messages);
  EXPECT_GT(serial.train_messages, 0u);
  // Ledger partition-invariance, stated explicitly for diagnostics.
  EXPECT_TRUE(serial.train_cost == sharded.train_cost)
      << serial.train_cost.ToString() << "\nvs\n"
      << sharded.train_cost.ToString();
  EXPECT_TRUE(serial.predict_cost == sharded.predict_cost);
  EXPECT_GT(serial.train_bytes, 0u);
}

TEST_F(ScaleDeterminismTest, Pace10kBroadcastWindowPreservesResults) {
  // A finite dissemination window only re-times event-queue pressure; every
  // contributor still broadcasts, so coverage and quality are unchanged.
  ExperimentOptions opt = ScaleOptions(AlgorithmType::kPace, 10000);
  RunFingerprint unlimited = RunWith(opt, 4);
  opt.pace.max_concurrent_broadcasts = 4;
  RunFingerprint windowed = RunWith(opt, 4);
  EXPECT_EQ(unlimited.macro_f1, windowed.macro_f1);
  EXPECT_EQ(unlimited.coverage, windowed.coverage);
  EXPECT_EQ(unlimited.train_messages, windowed.train_messages);
  EXPECT_EQ(unlimited.failed, windowed.failed);
}

TEST_F(ScaleDeterminismTest, Cempar2kSerialEqualsSharded) {
  // CEMPaR exercises the Chord path; 2k keeps DHT stabilization affordable
  // in sanitizer builds while still far above every tier-1 network size.
  ExperimentOptions opt = ScaleOptions(AlgorithmType::kCempar, 2048);
  opt.cempar.svm.kernel = Kernel::Linear();
  RunFingerprint serial = RunWith(opt, 1);
  RunFingerprint sharded = RunWith(opt, 4);
  EXPECT_TRUE(serial == sharded);
  EXPECT_GT(serial.train_messages, 0u);
}

TEST_F(ScaleDeterminismTest, DeterministicSampleIsStable) {
  std::vector<std::size_t> a = DeterministicSample(100000, 64, 7);
  std::vector<std::size_t> b = DeterministicSample(100000, 64, 7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // Distinct seeds give distinct pools; k >= n degrades to the full range.
  EXPECT_NE(a, DeterministicSample(100000, 64, 8));
  std::vector<std::size_t> full = DeterministicSample(5, 10, 7);
  EXPECT_EQ(full, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace p2pdt
