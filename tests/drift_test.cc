// Drift-robustness suite: determinism of the drifting stream generator,
// bit-identity of the armed-but-idle drift machinery on stationary
// streams, serial==parallel bit-determinism with drift events and the
// retrain/republish path live, and an end-to-end detection/recovery case
// pinned to the CI smoke configuration.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "corpus/generator.h"
#include "corpus/vectorize.h"
#include "p2pdmt/drift.h"

namespace p2pdt {
namespace {

StreamOptions TinyStream() {
  StreamOptions stream;
  stream.base.num_users = 8;
  stream.base.num_tags = 3;
  stream.base.vocabulary_size = 300;
  stream.base.topic_words_per_tag = 20;
  stream.base.min_doc_words = 15;
  stream.base.max_doc_words = 40;
  stream.base.seed = 4242;
  stream.num_epochs = 5;
  stream.min_docs_per_user_per_epoch = 3;
  stream.max_docs_per_user_per_epoch = 4;
  stream.reserve_tags = 1;
  return stream;
}

DriftEvent SuddenShift(std::size_t epoch) {
  DriftEvent event;
  event.kind = DriftKind::kVocabularyShift;
  event.epoch = epoch;
  event.tag = DriftEvent::kAllTags;
  event.magnitude = 1.0;
  return event;
}

bool SameDocuments(const StreamedCorpus& a, const StreamedCorpus& b,
                   std::size_t upto_epoch) {
  if (a.documents.size() != b.documents.size()) return false;
  for (std::size_t i = 0; i < a.documents.size(); ++i) {
    if (a.doc_epoch[i] != b.doc_epoch[i]) return false;
    if (a.doc_epoch[i] >= upto_epoch) continue;
    const RawDocument& da = a.documents[i];
    const RawDocument& db = b.documents[i];
    if (da.title != db.title || da.text != db.text || da.tags != db.tags ||
        da.user != db.user) {
      return false;
    }
  }
  return true;
}

TEST(DriftStreamTest, GenerationIsDeterministic) {
  StreamOptions opt = TinyStream();
  opt.events.push_back(SuddenShift(2));
  Result<StreamedCorpus> a = GenerateStream(opt);
  Result<StreamedCorpus> b = GenerateStream(opt);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.value().first_drift_epoch, 2u);
  EXPECT_TRUE(SameDocuments(a.value(), b.value(), opt.num_epochs));
}

TEST(DriftStreamTest, EventsLeaveEarlierEpochsUntouched) {
  StreamOptions stationary = TinyStream();
  StreamOptions drifting = TinyStream();
  drifting.events.push_back(SuddenShift(2));
  Result<StreamedCorpus> a = GenerateStream(stationary);
  Result<StreamedCorpus> b = GenerateStream(drifting);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.value().first_drift_epoch, stationary.num_epochs);
  // Pre-drift epochs draw from RNG streams keyed only by (seed, epoch) —
  // scripting an event at epoch 2 cannot rewrite history before it.
  EXPECT_TRUE(SameDocuments(a.value(), b.value(), 2));
}

TEST(DriftScenarioTest, KnownScenariosProduceEvents) {
  StreamOptions opt = TinyStream();
  for (const char* name :
       {"sudden_vocab", "gradual_rotation", "popularity_spike", "new_tag"}) {
    Result<std::vector<DriftEvent>> events = ScenarioEvents(name, opt);
    ASSERT_TRUE(events.ok()) << name << ": " << events.status().ToString();
    EXPECT_FALSE(events.value().empty()) << name;
  }
  Result<std::vector<DriftEvent>> none = ScenarioEvents("none", opt);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

TEST(DriftScenarioTest, NewTagNeedsAReservedTag) {
  StreamOptions opt = TinyStream();
  opt.reserve_tags = 0;
  EXPECT_FALSE(ScenarioEvents("new_tag", opt).ok());
  EXPECT_FALSE(ScenarioEvents("no_such_scenario", TinyStream()).ok());
}

DriftExperimentOptions HarnessOptions(RetrainPolicy policy) {
  DriftExperimentOptions opt;
  opt.algorithm = AlgorithmType::kPace;
  opt.pace.reliable_dissemination = true;
  opt.policy = policy;
  opt.window_documents = 24;
  opt.staleness.window = 8;
  opt.staleness.min_observations = 6;
  opt.staleness.drift_threshold = 0.06;
  opt.staleness.stale_after_docs = 16;
  opt.periodic_interval_epochs = 2;
  return opt;
}

const VectorizedStream& StationaryStream() {
  static const VectorizedStream stream = [] {
    Result<VectorizedStream> r = MakeVectorizedStream(TinyStream());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }();
  return stream;
}

const VectorizedStream& DriftingStream() {
  static const VectorizedStream stream = [] {
    StreamOptions opt = TinyStream();
    opt.events.push_back(SuddenShift(2));
    Result<VectorizedStream> r = MakeVectorizedStream(opt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }();
  return stream;
}

DriftExperimentResult RunHarness(const VectorizedStream& stream,
                                 DriftExperimentOptions opt) {
  Result<DriftExperimentResult> r = RunDriftExperiment(stream, opt);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// The ISSUE acceptance contract: on a stationary stream the armed drift
// machinery (trackers fed, detector consulted, refresh path compiled in)
// must be observably invisible — bit-identical to the frozen baseline.
TEST(DriftHarnessTest, StationaryArmedPoliciesAreBitIdentical) {
  // The detection threshold is a per-stream calibration (see bench_drift):
  // on this tiny 8-peer stream the stationary Jaccard-gap noise ceiling
  // sits higher than on the bench streams, so the armed arms run with a
  // threshold above it — fed and consulted every epoch, never firing.
  auto armed = [](RetrainPolicy policy) {
    DriftExperimentOptions opt = HarnessOptions(policy);
    opt.staleness.drift_threshold = 0.35;
    return opt;
  };
  DriftExperimentResult frozen =
      RunHarness(StationaryStream(), armed(RetrainPolicy::kFrozen));
  DriftExperimentResult staleness = RunHarness(
      StationaryStream(), armed(RetrainPolicy::kStalenessTriggered));
  DriftExperimentResult drift =
      RunHarness(StationaryStream(), armed(RetrainPolicy::kDriftTriggered));
  EXPECT_EQ(frozen.retrains, 0u);
  EXPECT_EQ(staleness.retrains, 0u);
  EXPECT_EQ(drift.retrains, 0u);
  EXPECT_EQ(frozen.fingerprint, staleness.fingerprint);
  EXPECT_EQ(frozen.fingerprint, drift.fingerprint);
  EXPECT_GT(frozen.fingerprint, 0u);
}

// Serial vs parallel with drift events live AND the periodic retrain /
// republish path firing every interval: the whole epoch loop — predict,
// track, retrain, republish, re-evaluate — must be bit-deterministic
// across thread counts.
TEST(DriftHarnessTest, SerialMatchesShardedWithRetrainsLive) {
  const DriftExperimentOptions opt = HarnessOptions(RetrainPolicy::kPeriodic);
  ThreadPool::SetGlobalConcurrency(1);
  DriftExperimentResult a = RunHarness(DriftingStream(), opt);
  ThreadPool::SetGlobalConcurrency(4);
  DriftExperimentResult b = RunHarness(DriftingStream(), opt);
  ThreadPool::SetGlobalConcurrency(0);
  EXPECT_GT(a.retrains, 0u);
  EXPECT_EQ(a.retrains, b.retrains);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(DriftHarnessTest, SerialMatchesShardedWithDetectorArmed) {
  const DriftExperimentOptions opt =
      HarnessOptions(RetrainPolicy::kDriftTriggered);
  ThreadPool::SetGlobalConcurrency(1);
  DriftExperimentResult a = RunHarness(DriftingStream(), opt);
  ThreadPool::SetGlobalConcurrency(4);
  DriftExperimentResult b = RunHarness(DriftingStream(), opt);
  ThreadPool::SetGlobalConcurrency(0);
  EXPECT_EQ(a.retrains, b.retrains);
  EXPECT_EQ(a.drift_detections, b.drift_detections);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

// End-to-end detection and recovery, pinned to the CI smoke shape: a
// sudden vocabulary shift under 20 % packet loss. The drift-triggered arm
// must actually fire and must end strictly better than the frozen arm.
TEST(DriftHarnessTest, DetectorFiresAndRecoveryBeatsFrozen) {
  StreamOptions opt;
  opt.base.num_users = 10;
  opt.base.num_tags = 4;
  opt.base.vocabulary_size = 800;
  opt.base.topic_words_per_tag = 40;
  opt.base.min_doc_words = 30;
  opt.base.max_doc_words = 80;
  opt.base.seed = 20100913;
  opt.num_epochs = 6;
  opt.min_docs_per_user_per_epoch = 3;
  opt.max_docs_per_user_per_epoch = 5;
  opt.reserve_tags = 1;
  Result<std::vector<DriftEvent>> events = ScenarioEvents("sudden_vocab", opt);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  opt.events = std::move(events).value();
  Result<VectorizedStream> stream = MakeVectorizedStream(opt);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  DriftExperimentOptions frozen_opt = HarnessOptions(RetrainPolicy::kFrozen);
  frozen_opt.env.physical.loss_rate = 0.2;
  frozen_opt.window_documents = 40;
  frozen_opt.staleness.window = 12;
  frozen_opt.staleness.min_observations = 8;
  frozen_opt.staleness.fast_alpha = 0.3;
  frozen_opt.staleness.slow_alpha = 0.01;
  frozen_opt.staleness.stale_after_docs = 24;
  DriftExperimentOptions drift_opt = frozen_opt;
  drift_opt.policy = RetrainPolicy::kDriftTriggered;

  DriftExperimentResult frozen = RunHarness(stream.value(), frozen_opt);
  DriftExperimentResult drift = RunHarness(stream.value(), drift_opt);
  EXPECT_EQ(frozen.retrains, 0u);
  EXPECT_GT(drift.retrains, 0u);
  EXPECT_GT(drift.drift_detections, 0u);
  EXPECT_GT(drift.final_f1, frozen.final_f1);
  EXPECT_GT(frozen.max_dip, 0.0);
}

}  // namespace
}  // namespace p2pdt
