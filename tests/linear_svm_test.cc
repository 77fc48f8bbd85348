#include "ml/linear_svm.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/metrics.h"

namespace p2pdt {
namespace {

Example Make(std::vector<SparseVector::Entry> f, double y) {
  return {SparseVector::FromPairs(std::move(f)), y};
}

TEST(LinearSvmTest, RejectsEmptyData) {
  EXPECT_EQ(TrainLinearSvm({}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LinearSvmTest, RejectsNonPositiveC) {
  LinearSvmOptions opt;
  opt.c = 0.0;
  EXPECT_FALSE(TrainLinearSvm({Make({{0, 1.0}}, 1)}, opt).ok());
}

TEST(LinearSvmTest, SeparablePairClassifiedCorrectly) {
  std::vector<Example> data = {Make({{0, 1.0}}, 1), Make({{1, 1.0}}, -1)};
  Result<LinearSvmModel> model = TrainLinearSvm(data);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->Decision(data[0].x), 0.0);
  EXPECT_LT(model->Decision(data[1].x), 0.0);
}

TEST(LinearSvmTest, SeparableClusters) {
  Rng rng(1);
  std::vector<Example> data;
  for (int i = 0; i < 40; ++i) {
    // Positive: mass on features 0-4; negative: features 5-9.
    uint32_t base = (i % 2 == 0) ? 0 : 5;
    std::vector<SparseVector::Entry> f;
    for (uint32_t j = 0; j < 5; ++j) {
      f.emplace_back(base + j, rng.Uniform(0.5, 1.5));
    }
    data.push_back(Make(std::move(f), (i % 2 == 0) ? 1.0 : -1.0));
  }
  Result<LinearSvmModel> model = TrainLinearSvm(data);
  ASSERT_TRUE(model.ok());
  for (const Example& ex : data) {
    EXPECT_EQ(model->Predict(ex.x), ex.y);
  }
}

TEST(LinearSvmTest, AllSupportVectorsInsideMargin) {
  // For separable data the decision values should be pushed toward >= 1
  // margins with large C.
  LinearSvmOptions opt;
  opt.c = 100.0;
  opt.max_iterations = 2000;
  std::vector<Example> data = {Make({{0, 1.0}}, 1), Make({{1, 1.0}}, -1),
                               Make({{0, 0.9}, {2, 0.1}}, 1),
                               Make({{1, 0.9}, {2, 0.1}}, -1)};
  Result<LinearSvmModel> model = TrainLinearSvm(data, opt);
  ASSERT_TRUE(model.ok());
  for (const Example& ex : data) {
    EXPECT_GE(ex.y * model->Decision(ex.x), 0.99);
  }
}

TEST(LinearSvmTest, HugeHashedFeatureSpaceStaysCheap) {
  // Feature ids near 2^31: the trainer must remap, not allocate densely.
  std::vector<Example> data = {Make({{2000000000u, 1.0}}, 1),
                               Make({{2100000000u, 1.0}}, -1)};
  Result<LinearSvmModel> model = TrainLinearSvm(data);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->Decision(data[0].x), 0.0);
  EXPECT_LT(model->Decision(data[1].x), 0.0);
  EXPECT_LE(model->weights().nnz(), 2u);
}

TEST(LinearSvmTest, SingleClassDataBiasesToThatClass) {
  std::vector<Example> data = {Make({{0, 1.0}}, 1), Make({{1, 1.0}}, 1)};
  Result<LinearSvmModel> model = TrainLinearSvm(data);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->Decision(SparseVector::FromPairs({{7, 1.0}})), 0.0);
}

TEST(LinearSvmTest, DeterministicInSeed) {
  std::vector<Example> data;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    data.push_back(Make({{static_cast<uint32_t>(i % 7), rng.NextDouble()},
                         {static_cast<uint32_t>(7 + i % 3), 1.0}},
                        i % 2 ? 1.0 : -1.0));
  }
  LinearSvmOptions opt;
  opt.seed = 42;
  Result<LinearSvmModel> a = TrainLinearSvm(data, opt);
  Result<LinearSvmModel> b = TrainLinearSvm(data, opt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->weights(), b->weights());
  EXPECT_DOUBLE_EQ(a->bias(), b->bias());
}

TEST(LinearSvmTest, NoisyDataStillMostlyCorrect) {
  Rng rng(11);
  std::vector<Example> data;
  for (int i = 0; i < 200; ++i) {
    bool pos = i % 2 == 0;
    std::vector<SparseVector::Entry> f;
    // Signal features plus shared noise features.
    f.emplace_back(pos ? 0 : 1, 1.0);
    f.emplace_back(2 + rng.NextU64(5), rng.NextDouble());
    double label = (pos ? 1.0 : -1.0);
    if (rng.Bernoulli(0.05)) label = -label;  // 5% label noise
    data.push_back(Make(std::move(f), label));
  }
  Result<LinearSvmModel> model = TrainLinearSvm(data);
  ASSERT_TRUE(model.ok());
  std::vector<double> truth, pred;
  for (int i = 0; i < 200; ++i) {
    truth.push_back(i % 2 == 0 ? 1.0 : -1.0);
    pred.push_back(model->Predict(data[i].x));
  }
  EXPECT_GT(BinaryAccuracy(truth, pred), 0.9);
}

TEST(LinearSvmTest, WireSizeTracksSparsity) {
  std::vector<Example> data = {Make({{0, 1.0}}, 1), Make({{1, 1.0}}, -1)};
  Result<LinearSvmModel> model = TrainLinearSvm(data);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->WireSize(), model->weights().WireSize() + 8);
}

// Property sweep: for any soft-margin C, separable data must be classified
// perfectly and the solution must respect the dual box constraints
// (verified indirectly via the margin bound y·f(x) growing with C).
class LinearSvmCSweep : public ::testing::TestWithParam<double> {};

TEST_P(LinearSvmCSweep, SeparableDataAlwaysCorrect) {
  const double c = GetParam();
  Rng rng(100);
  std::vector<Example> data;
  for (int i = 0; i < 60; ++i) {
    uint32_t base = (i % 2 == 0) ? 0 : 8;
    std::vector<SparseVector::Entry> f;
    for (uint32_t j = 0; j < 4; ++j) {
      f.emplace_back(base + j, rng.Uniform(0.5, 1.5));
    }
    data.push_back(Make(std::move(f), (i % 2 == 0) ? 1.0 : -1.0));
  }
  LinearSvmOptions opt;
  opt.c = c;
  opt.max_iterations = 500;
  Result<LinearSvmModel> model = TrainLinearSvm(data, opt);
  ASSERT_TRUE(model.ok()) << "C=" << c;
  for (const Example& ex : data) {
    EXPECT_EQ(model->Predict(ex.x), ex.y) << "C=" << c;
  }
}

TEST_P(LinearSvmCSweep, WeightNormBoundedByDualBox) {
  // ||w|| = ||Σ α_i y_i x_i|| ≤ Σ α_i ||x_i|| ≤ n·C·max||x||.
  const double c = GetParam();
  std::vector<Example> data = {Make({{0, 1.0}}, 1), Make({{0, 1.0}}, -1)};
  LinearSvmOptions opt;
  opt.c = c;
  Result<LinearSvmModel> model = TrainLinearSvm(data, opt);
  ASSERT_TRUE(model.ok());
  EXPECT_LE(model->weights().Norm(), 2.0 * c + 1e-9) << "C=" << c;
}

INSTANTIATE_TEST_SUITE_P(CValues, LinearSvmCSweep,
                         ::testing::Values(0.01, 0.1, 1.0, 10.0, 100.0));

TEST(LinearSvmModelTest, UpdateShiftsDecision) {
  LinearSvmModel model(SparseVector::FromPairs({{0, 1.0}}), 0.0);
  SparseVector x = SparseVector::FromPairs({{0, 1.0}});
  double before = model.Decision(x);
  model.Update(x, 0.5, 1.0);
  EXPECT_NEAR(model.Decision(x), before + 0.5 * x.Dot(x) + 0.5, 1e-12);
}

}  // namespace
}  // namespace p2pdt
