#include "ml/online.h"

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

SparseVector X(std::vector<SparseVector::Entry> f) {
  return SparseVector::FromPairs(std::move(f));
}

TEST(PassiveAggressiveTest, NoUpdateWhenMarginSatisfied) {
  LinearSvmModel model(X({{0, 5.0}}), 0.0);
  SparseVector x = X({{0, 1.0}});
  double before = model.Decision(x);
  double loss = PassiveAggressiveUpdate(model, x, 1.0);
  EXPECT_DOUBLE_EQ(loss, 0.0);
  EXPECT_DOUBLE_EQ(model.Decision(x), before);
}

TEST(PassiveAggressiveTest, UpdateMovesTowardLabel) {
  LinearSvmModel model;  // zero model
  SparseVector x = X({{0, 1.0}});
  double loss = PassiveAggressiveUpdate(model, x, 1.0);
  EXPECT_DOUBLE_EQ(loss, 1.0);  // hinge at zero decision
  EXPECT_GT(model.Decision(x), 0.0);
}

TEST(PassiveAggressiveTest, NegativeLabelMovesDown) {
  LinearSvmModel model;
  SparseVector x = X({{3, 2.0}});
  PassiveAggressiveUpdate(model, x, -1.0);
  EXPECT_LT(model.Decision(x), 0.0);
}

TEST(PassiveAggressiveTest, RepeatedUpdatesConverge) {
  LinearSvmModel model;
  SparseVector x = X({{0, 1.0}});
  for (int i = 0; i < 20; ++i) {
    PassiveAggressiveUpdate(model, x, 1.0);
  }
  // PA converges toward margin 1 on a single example.
  EXPECT_GT(model.Decision(x), 0.8);
  EXPECT_DOUBLE_EQ(PassiveAggressiveUpdate(model, x, 1.0),
                   std::max(0.0, 1.0 - model.Decision(x)));
}

OneVsAllModel TwoTagModel() {
  OneVsAllModel model;
  model.SetModel(0, std::make_unique<LinearSvmModel>(X({{0, 1.0}}), 0.0));
  model.SetModel(1, std::make_unique<LinearSvmModel>(X({{1, 1.0}}), 0.0));
  return model;
}

TEST(RefineTagsTest, PositiveAndNegativeCorrections) {
  OneVsAllModel model = TwoTagModel();
  SparseVector x = X({{0, 1.0}, {1, 1.0}});
  // The system predicted {0, 1}; the user corrected to {1}: tag 0 gets a
  // negative update, tag 1 a positive one.
  std::size_t updated = RefineTags(model, x, /*predicted=*/{0, 1},
                                   /*corrected=*/{1});
  EXPECT_EQ(updated, 2u);
  EXPECT_LT(model.model(0)->Decision(x), 1.0);
  EXPECT_GE(model.model(1)->Decision(x), 1.0);
}

TEST(RefineTagsTest, RepeatedRefinementFlipsPrediction) {
  OneVsAllModel model = TwoTagModel();
  SparseVector x = X({{0, 1.0}});
  ASSERT_GT(model.model(0)->Decision(x), 0.0);
  // The user insists tag 0 does NOT belong on this document.
  for (int i = 0; i < 10; ++i) {
    RefineTags(model, x, {0}, {});
  }
  EXPECT_LT(model.model(0)->Decision(x), 0.0);
}

TEST(RefineTagsTest, UnknownTagsIgnoredGracefully) {
  OneVsAllModel model = TwoTagModel();
  SparseVector x = X({{0, 1.0}});
  // Corrected tag 9 has no model yet; predicted tag 7 neither.
  std::size_t updated = RefineTags(model, x, {7}, {9});
  EXPECT_EQ(updated, 0u);
}

TEST(RefineTagsTest, NonLinearModelsLeftAlone) {
  OneVsAllModel model;
  // No model at all for tag 0 (nullptr).
  model.SetModel(0, nullptr);
  EXPECT_EQ(RefineTags(model, X({{0, 1.0}}), {0}, {0}), 0u);
}

TEST(RefineTagsTest, UnsortedAndDuplicatedCorrectionsNormalize) {
  // Regression: the negative-correction membership test binary-searches the
  // corrected set, which silently misbehaves on unsorted input, and a
  // duplicated corrected tag must not be nudged twice.
  OneVsAllModel a = TwoTagModel();
  OneVsAllModel b = TwoTagModel();
  SparseVector x = X({{0, 1.0}, {1, 1.0}});
  std::size_t ua = RefineTags(a, x, {0, 1}, {1, 0, 1, 0});
  std::size_t ub = RefineTags(b, x, {0, 1}, {0, 1});
  EXPECT_EQ(ua, ub);
  EXPECT_DOUBLE_EQ(a.model(0)->Decision(x), b.model(0)->Decision(x));
  EXPECT_DOUBLE_EQ(a.model(1)->Decision(x), b.model(1)->Decision(x));
}

RefinementUpdate Update(uint64_t doc, uint32_t revision,
                        std::vector<TagId> predicted,
                        std::vector<TagId> corrected) {
  RefinementUpdate u;
  u.doc_id = doc;
  u.revision = revision;
  u.x = X({{0, 1.0}, {1, 1.0}});
  u.predicted_tags = std::move(predicted);
  u.corrected_tags = std::move(corrected);
  return u;
}

TEST(RefinementLogTest, DuplicateDeliveryIsANoOp) {
  OneVsAllModel model = TwoTagModel();
  RefinementLog log;
  RefinementUpdate u = Update(42, 1, {0, 1}, {1});
  EXPECT_TRUE(log.ShouldApply(u));
  EXPECT_GT(log.Apply(model, u), 0u);
  const double d0 = model.model(0)->Decision(u.x);
  const double d1 = model.model(1)->Decision(u.x);
  // A retransmit of the exact same revision must not move the model.
  EXPECT_FALSE(log.ShouldApply(u));
  EXPECT_EQ(log.Apply(model, u), 0u);
  EXPECT_DOUBLE_EQ(model.model(0)->Decision(u.x), d0);
  EXPECT_DOUBLE_EQ(model.model(1)->Decision(u.x), d1);
  EXPECT_EQ(log.applied(), 1u);
  EXPECT_EQ(log.skipped_duplicate(), 1u);
  EXPECT_EQ(log.skipped_stale(), 0u);
}

TEST(RefinementLogTest, StaleRevisionIsDropped) {
  OneVsAllModel model = TwoTagModel();
  RefinementLog log;
  // Revision 2 arrives first (the user re-corrected before the original
  // correction propagated); the late revision 1 must not roll it back.
  EXPECT_GT(log.Apply(model, Update(7, 2, {0, 1}, {})), 0u);
  const double d0 = model.model(0)->Decision(X({{0, 1.0}, {1, 1.0}}));
  EXPECT_EQ(log.Apply(model, Update(7, 1, {0, 1}, {0, 1})), 0u);
  EXPECT_DOUBLE_EQ(model.model(0)->Decision(X({{0, 1.0}, {1, 1.0}})), d0);
  EXPECT_EQ(log.applied(), 1u);
  EXPECT_EQ(log.skipped_stale(), 1u);
}

TEST(RefinementLogTest, ReplicasConvergeDespiteRedelivery) {
  // Two replicas see the same revisions, one with duplicates sprinkled in —
  // exactly-once application keeps their models bit-identical.
  OneVsAllModel clean = TwoTagModel();
  OneVsAllModel noisy = TwoTagModel();
  RefinementLog clean_log, noisy_log;
  RefinementUpdate r1 = Update(9, 1, {0}, {1});
  RefinementUpdate r2 = Update(9, 2, {1}, {0});
  clean_log.Apply(clean, r1);
  clean_log.Apply(clean, r2);
  noisy_log.Apply(noisy, r1);
  noisy_log.Apply(noisy, r1);  // retransmit
  noisy_log.Apply(noisy, r2);
  noisy_log.Apply(noisy, r1);  // straggler
  noisy_log.Apply(noisy, r2);  // retransmit
  SparseVector x = X({{0, 1.0}, {1, 1.0}});
  EXPECT_DOUBLE_EQ(clean.model(0)->Decision(x), noisy.model(0)->Decision(x));
  EXPECT_DOUBLE_EQ(clean.model(1)->Decision(x), noisy.model(1)->Decision(x));
  EXPECT_EQ(noisy_log.applied(), 2u);
  EXPECT_EQ(noisy_log.skipped_duplicate(), 2u);
  EXPECT_EQ(noisy_log.skipped_stale(), 1u);
}

TEST(RefinementLogTest, DocumentsAreIndependent) {
  OneVsAllModel model = TwoTagModel();
  RefinementLog log;
  EXPECT_GT(log.Apply(model, Update(1, 5, {0}, {1})), 0u);
  // A lower revision of a *different* document is not stale.
  EXPECT_GT(log.Apply(model, Update(2, 1, {0}, {1})), 0u);
  EXPECT_EQ(log.applied(), 2u);
  EXPECT_EQ(log.skipped_stale(), 0u);
}

}  // namespace
}  // namespace p2pdt
