// Unit coverage for the cross-validation reputation ledger: holdout
// determinism, balanced-accuracy scoring (both-classes requirement, honest
// 0.5 floor, informed filter), EWMA trust updates, and the full quarantine
// lifecycle — decay, exclusion, probation, re-admission with hysteresis.

#include "p2pml/reputation.h"

#include <memory>

#include <gtest/gtest.h>

#include "ml/multilabel.h"

namespace p2pdt {
namespace {

/// Decides a tag purely from one feature's presence; `sign` = -1 gives a
/// perfectly anti-correlated (label-flipped) model.
class FeatureClassifier final : public BinaryClassifier {
 public:
  FeatureClassifier(uint32_t feature, double sign)
      : feature_(feature), sign_(sign) {}
  double Decision(const SparseVector& x) const override {
    return sign_ * (x.Get(feature_) > 0.0 ? 1.0 : -1.0);
  }
  std::size_t WireSize() const override { return 16; }
  std::unique_ptr<BinaryClassifier> Clone() const override {
    return std::make_unique<FeatureClassifier>(feature_, sign_);
  }

 private:
  uint32_t feature_;
  double sign_;
};

/// 40 examples over 2 tags: evens carry tag 0 (feature 0 set), odds carry
/// tag 1 (feature 1 set) — every tag has both classes in any decent-sized
/// subsample, and feature i predicts tag i exactly.
MultiLabelDataset TwoTagDataset() {
  MultiLabelDataset data(2);
  for (std::size_t i = 0; i < 40; ++i) {
    MultiLabelExample ex;
    TagId tag = static_cast<TagId>(i % 2);
    ex.x = SparseVector::FromPairs({{tag, 1.0}, {10 + static_cast<uint32_t>(i), 0.5}});
    ex.tags = {tag};
    data.Add(std::move(ex));
  }
  return data;
}

ReputationManager MakeManager(std::size_t num_peers) {
  ReputationManager rep(ReputationOptions{}, /*metrics=*/nullptr, "test");
  rep.Reset(num_peers);
  return rep;
}

TEST(ReputationTest, HoldoutIsDeterministicSubsample) {
  MultiLabelDataset data = TwoTagDataset();
  ReputationManager a = MakeManager(4);
  ReputationManager b = MakeManager(4);
  EXPECT_FALSE(a.HasHoldout(0));
  a.SetHoldout(0, data);
  b.SetHoldout(0, data);
  ASSERT_TRUE(a.HasHoldout(0));
  EXPECT_FALSE(a.HasHoldout(1));

  FeatureClassifier good(0, 1.0);
  EXPECT_DOUBLE_EQ(a.ScoreBinary(0, good, 0), b.ScoreBinary(0, good, 0));
  // Re-installing replaces (not extends) the slice.
  a.SetHoldout(0, data);
  EXPECT_DOUBLE_EQ(a.ScoreBinary(0, good, 0), b.ScoreBinary(0, good, 0));
  // Out-of-range observers are ignored, not UB.
  a.SetHoldout(99, data);
  EXPECT_FALSE(a.HasHoldout(99));
}

TEST(ReputationTest, ScoresSeparateHonestFromFlipped) {
  ReputationManager rep = MakeManager(4);
  rep.SetHoldout(0, TwoTagDataset());

  FeatureClassifier good(0, 1.0);
  FeatureClassifier flipped(0, -1.0);
  ConstantClassifier always_positive(1.0);
  EXPECT_DOUBLE_EQ(rep.ScoreBinary(0, good, 0), 1.0);
  EXPECT_DOUBLE_EQ(rep.ScoreBinary(0, flipped, 0), 0.0);
  // Degenerate one-class opinions sit at the 0.5 balanced-accuracy floor:
  // honest-but-uninformative, safely above every quarantine threshold.
  EXPECT_DOUBLE_EQ(rep.ScoreBinary(0, always_positive, 0), 0.5);
}

TEST(ReputationTest, ScoreRequiresBothClassesInHoldout) {
  // Every example carries tag 0, none carries tag 1: neither tag is
  // evaluable (tag 0 has no negatives, tag 1 no positives).
  MultiLabelDataset one_class(2);
  for (std::size_t i = 0; i < 20; ++i) {
    MultiLabelExample ex;
    ex.x = SparseVector::FromPairs({{0, 1.0}});
    ex.tags = {0};
    one_class.Add(std::move(ex));
  }
  ReputationManager rep = MakeManager(4);
  rep.SetHoldout(0, one_class);
  FeatureClassifier good(0, 1.0);
  EXPECT_DOUBLE_EQ(rep.ScoreBinary(0, good, 0), -1.0);
  EXPECT_DOUBLE_EQ(rep.ScoreBinary(0, good, 1), -1.0);
  // No holdout at all is equally unevaluable.
  EXPECT_DOUBLE_EQ(rep.ScoreBinary(1, good, 0), -1.0);
}

TEST(ReputationTest, ScoreOneVsAllHonorsInformedFilter) {
  ReputationManager rep = MakeManager(4);
  rep.SetHoldout(0, TwoTagDataset());

  std::vector<std::unique_ptr<BinaryClassifier>> models;
  models.push_back(std::make_unique<FeatureClassifier>(0, 1.0));   // perfect
  models.push_back(std::make_unique<FeatureClassifier>(1, -1.0));  // flipped
  OneVsAllModel model(std::move(models));

  std::vector<bool> only_good = {true, false};
  std::vector<bool> only_bad = {false, true};
  EXPECT_DOUBLE_EQ(rep.ScoreOneVsAll(0, model, &only_good), 1.0);
  EXPECT_DOUBLE_EQ(rep.ScoreOneVsAll(0, model, &only_bad), 0.0);
  EXPECT_DOUBLE_EQ(rep.ScoreOneVsAll(0, model, nullptr), 0.5);
  // Nothing informed -> nothing evaluable.
  std::vector<bool> none = {false, false};
  EXPECT_DOUBLE_EQ(rep.ScoreOneVsAll(0, model, &none), -1.0);
}

TEST(ReputationTest, ObserveFirstSetsThenEwma) {
  ReputationManager rep = MakeManager(4);
  EXPECT_DOUBLE_EQ(rep.Trust(0, 1), 1.0);  // unseen peers are trusted

  rep.Observe(0, 1, 0.8);
  EXPECT_DOUBLE_EQ(rep.Trust(0, 1), 0.8);  // first observation sets outright
  rep.Observe(0, 1, 0.3);
  EXPECT_DOUBLE_EQ(rep.Trust(0, 1), 0.6 * 0.8 + 0.4 * 0.3);

  // Unevaluable scores are a no-op, not a trust hit.
  EXPECT_FALSE(rep.Observe(0, 2, -1.0));
  EXPECT_DOUBLE_EQ(rep.Trust(0, 2), 1.0);
  EXPECT_EQ(rep.observations(), 2u);
}

TEST(ReputationTest, QuarantineLifecycle) {
  ReputationManager rep = MakeManager(4);

  // Decay -> exclusion: an anti-correlated score lands below the
  // quarantine threshold in one observation; only the transition edge
  // returns true (callers purge merged state exactly once).
  EXPECT_TRUE(rep.Observe(0, 1, 0.0));
  EXPECT_TRUE(rep.IsQuarantined(0, 1));
  EXPECT_FALSE(rep.Observe(0, 1, 0.0));
  EXPECT_EQ(rep.num_quarantined(), 1u);
  EXPECT_EQ(rep.total_quarantines(), 1u);
  // Quarantine is per observer pair: peer 2's view of 1 is untouched.
  EXPECT_FALSE(rep.IsQuarantined(2, 1));

  // Probation -> re-admission with hysteresis: trust must climb back past
  // kReadmitThreshold (0.5), strictly above the quarantine line (0.3).
  std::size_t probes = 0;
  while (rep.IsQuarantined(0, 1) && probes < 32) {
    rep.Observe(0, 1, 1.0);
    ++probes;
  }
  EXPECT_FALSE(rep.IsQuarantined(0, 1));
  EXPECT_GE(rep.Trust(0, 1), ReputationManager::kReadmitThreshold);
  EXPECT_GT(probes, 1u);  // hysteresis: one good probe is not enough
  EXPECT_EQ(rep.num_quarantined(), 0u);
  EXPECT_EQ(rep.total_readmissions(), 1u);
  EXPECT_EQ(rep.total_quarantines(), 1u);
}

TEST(ReputationTest, SuspectBandBetweenThresholds) {
  ReputationManager rep = MakeManager(4);
  double mid = 0.5 * (ReputationManager::kQuarantineThreshold +
                      ReputationManager::kSuspectThreshold);

  rep.Observe(0, 1, mid);
  EXPECT_FALSE(rep.IsQuarantined(0, 1));
  EXPECT_TRUE(rep.IsSuspect(0, 1));
  EXPECT_DOUBLE_EQ(rep.ObservedAccuracy(0, 1), mid);

  rep.Observe(0, 2, 0.9);
  EXPECT_FALSE(rep.IsSuspect(0, 2));
  // Never-observed peers are neither suspect nor quarantined.
  EXPECT_FALSE(rep.IsSuspect(0, 3));
  EXPECT_FALSE(rep.IsQuarantined(0, 3));
}

}  // namespace
}  // namespace p2pdt
