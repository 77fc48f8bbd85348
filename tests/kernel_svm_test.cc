#include "ml/kernel_svm.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/serialization.h"

namespace p2pdt {
namespace {

Example Make(std::vector<SparseVector::Entry> f, double y) {
  return {SparseVector::FromPairs(std::move(f)), y};
}

TEST(KernelTest, LinearKernelIsDot) {
  Kernel k = Kernel::Linear();
  SparseVector a = SparseVector::FromPairs({{0, 2.0}});
  SparseVector b = SparseVector::FromPairs({{0, 3.0}});
  EXPECT_DOUBLE_EQ(k(a, b), 6.0);
}

TEST(KernelTest, RbfKernelBounds) {
  Kernel k = Kernel::Rbf(1.0);
  SparseVector a = SparseVector::FromPairs({{0, 1.0}});
  SparseVector b = SparseVector::FromPairs({{1, 1.0}});
  EXPECT_DOUBLE_EQ(k(a, a), 1.0);  // K(x,x) = 1
  EXPECT_NEAR(k(a, b), std::exp(-2.0), 1e-12);
}

TEST(KernelTest, PolynomialKernel) {
  Kernel k = Kernel::Polynomial(1.0, 1.0, 2);
  SparseVector a = SparseVector::FromPairs({{0, 1.0}});
  EXPECT_DOUBLE_EQ(k(a, a), 4.0);  // (1*1 + 1)^2
}

TEST(KernelTest, ToStringNamesFamily) {
  EXPECT_EQ(Kernel::Linear().ToString(), "linear");
  EXPECT_NE(Kernel::Rbf(0.5).ToString().find("rbf"), std::string::npos);
  EXPECT_NE(Kernel::Polynomial(1, 0, 3).ToString().find("poly"),
            std::string::npos);
}

TEST(KernelSvmTest, RejectsEmptyData) {
  EXPECT_FALSE(TrainKernelSvm({}).ok());
}

TEST(KernelSvmTest, SeparableLinear) {
  KernelSvmOptions opt;
  opt.kernel = Kernel::Linear();
  std::vector<Example> data = {Make({{0, 1.0}}, 1), Make({{1, 1.0}}, -1)};
  Result<KernelSvmModel> model = TrainKernelSvm(data, opt);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->Decision(data[0].x), 0.0);
  EXPECT_LT(model->Decision(data[1].x), 0.0);
  EXPECT_GE(model->num_support_vectors(), 2u);
}

TEST(KernelSvmTest, XorNeedsNonLinearKernel) {
  // XOR in 2D: not linearly separable; RBF must solve it.
  std::vector<Example> data = {
      Make({{0, 1.0}, {1, 1.0}}, -1), Make({}, -1),
      Make({{0, 1.0}}, 1), Make({{1, 1.0}}, 1)};
  KernelSvmOptions rbf;
  rbf.kernel = Kernel::Rbf(2.0);
  rbf.c = 100.0;
  Result<KernelSvmModel> model = TrainKernelSvm(data, rbf);
  ASSERT_TRUE(model.ok());
  for (const Example& ex : data) {
    EXPECT_EQ(model->Predict(ex.x), ex.y) << ex.x.ToString();
  }
}

TEST(KernelSvmTest, SingleClassDegeneratesToConstant) {
  std::vector<Example> data = {Make({{0, 1.0}}, 1), Make({{1, 1.0}}, 1)};
  Result<KernelSvmModel> model = TrainKernelSvm(data);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->num_support_vectors(), 0u);
  EXPECT_GT(model->Decision(SparseVector()), 0.0);

  for (Example& ex : data) ex.y = -1;
  model = TrainKernelSvm(data);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(model->Decision(SparseVector()), 0.0);
}

TEST(KernelSvmTest, DualCoefficientsRespectBox) {
  Rng rng(3);
  std::vector<Example> data;
  for (int i = 0; i < 30; ++i) {
    data.push_back(Make({{static_cast<uint32_t>(rng.NextU64(4)), 1.0},
                         {4 + static_cast<uint32_t>(i % 2), 1.0}},
                        i % 2 ? 1.0 : -1.0));
  }
  KernelSvmOptions opt;
  opt.c = 2.5;
  Result<KernelSvmModel> model = TrainKernelSvm(data, opt);
  ASSERT_TRUE(model.ok());
  double balance = 0.0;
  for (const SupportVector& sv : model->support_vectors()) {
    EXPECT_GT(sv.alpha, 0.0);
    EXPECT_LE(sv.alpha, 2.5 + 1e-9);
    balance += sv.alpha * sv.y;
  }
  // Equality constraint yᵀα = 0 must hold at the solution.
  EXPECT_NEAR(balance, 0.0, 1e-6);
}

TEST(KernelSvmTest, MarginsOnSeparableData) {
  KernelSvmOptions opt;
  opt.kernel = Kernel::Linear();
  opt.c = 100.0;
  std::vector<Example> data = {Make({{0, 1.0}}, 1), Make({{0, -1.0}}, -1)};
  Result<KernelSvmModel> model = TrainKernelSvm(data, opt);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->Decision(data[0].x), 1.0, 0.05);
  EXPECT_NEAR(model->Decision(data[1].x), -1.0, 0.05);
}

TEST(KernelSvmTest, AgreesWithLinearSvmOnSeparableClusters) {
  Rng rng(8);
  std::vector<Example> data;
  for (int i = 0; i < 60; ++i) {
    uint32_t base = (i % 2 == 0) ? 0 : 4;
    std::vector<SparseVector::Entry> f;
    for (uint32_t j = 0; j < 4; ++j) {
      f.emplace_back(base + j, rng.Uniform(0.5, 1.5));
    }
    data.push_back(Make(std::move(f), i % 2 == 0 ? 1.0 : -1.0));
  }
  KernelSvmOptions opt;
  opt.kernel = Kernel::Linear();
  Result<KernelSvmModel> model = TrainKernelSvm(data, opt);
  ASSERT_TRUE(model.ok());
  int correct = 0;
  for (const Example& ex : data) {
    if (model->Predict(ex.x) == ex.y) ++correct;
  }
  EXPECT_EQ(correct, 60);
}

// Property sweep over kernels: each must classify its separable problem
// and keep dual variables inside the box.
class KernelSweep : public ::testing::TestWithParam<Kernel> {};

TEST_P(KernelSweep, SeparableProblemSolvedWithinBox) {
  Rng rng(55);
  std::vector<Example> data;
  for (int i = 0; i < 40; ++i) {
    uint32_t base = (i % 2 == 0) ? 0 : 5;
    std::vector<SparseVector::Entry> f;
    for (uint32_t j = 0; j < 4; ++j) {
      f.emplace_back(base + j, rng.Uniform(0.4, 1.2));
    }
    SparseVector x = SparseVector::FromPairs(std::move(f));
    x.L2Normalize();
    data.push_back({std::move(x), (i % 2 == 0) ? 1.0 : -1.0});
  }
  KernelSvmOptions opt;
  opt.kernel = GetParam();
  opt.c = 10.0;
  Result<KernelSvmModel> model = TrainKernelSvm(data, opt);
  ASSERT_TRUE(model.ok()) << opt.kernel.ToString();
  std::size_t correct = 0;
  double balance = 0.0;
  for (const Example& ex : data) {
    if (model->Predict(ex.x) == ex.y) ++correct;
  }
  for (const SupportVector& sv : model->support_vectors()) {
    EXPECT_GT(sv.alpha, 0.0);
    EXPECT_LE(sv.alpha, opt.c + 1e-9);
    balance += sv.alpha * sv.y;
  }
  EXPECT_NEAR(balance, 0.0, 1e-6) << opt.kernel.ToString();
  EXPECT_GE(correct, 38u) << opt.kernel.ToString();
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelSweep,
                         ::testing::Values(Kernel::Linear(), Kernel::Rbf(0.5),
                                           Kernel::Rbf(2.0),
                                           Kernel::Polynomial(1.0, 1.0, 2),
                                           Kernel::Polynomial(0.5, 0.0,
                                                              3)));

TEST(KernelSvmTest, WireSizeGrowsWithSupportVectors) {
  std::vector<Example> data = {Make({{0, 1.0}}, 1), Make({{1, 1.0}}, -1)};
  Result<KernelSvmModel> model = TrainKernelSvm(data);
  ASSERT_TRUE(model.ok());
  std::size_t expected = 8 + 16;
  for (const auto& sv : model->support_vectors()) {
    expected += sv.x.WireSize() + 16;
  }
  EXPECT_EQ(model->WireSize(), expected);
}

TEST(KernelSvmTest, CopiesShareOneSupportVectorArray) {
  std::vector<Example> data = {Make({{0, 1.0}, {2, 0.5}}, 1),
                               Make({{1, 1.0}}, -1),
                               Make({{0, 0.4}, {1, 0.9}}, -1),
                               Make({{2, 1.0}, {7, 0.3}}, 1)};
  Result<KernelSvmModel> model = TrainKernelSvm(data);
  ASSERT_TRUE(model.ok());
  ASSERT_GT(model->num_support_vectors(), 0u);
  const KernelSvmModel copy(*model);
  KernelSvmModel assigned;
  assigned = *model;
  std::unique_ptr<BinaryClassifier> clone = model->Clone();
  const auto* cloned = dynamic_cast<const KernelSvmModel*>(clone.get());
  ASSERT_NE(cloned, nullptr);
  const std::vector<const KernelSvmModel*> models = {&*model, &copy,
                                                     &assigned, cloned};
  for (const KernelSvmModel* m : models) {
    EXPECT_EQ(&m->support_vectors(), &model->support_vectors());
  }
  // A model rebuilt from the same support vectors owns its own array and
  // reads exactly as the shared copies do.
  const KernelSvmModel rebuilt(model->kernel(), model->support_vectors(),
                               model->bias());
  EXPECT_NE(&rebuilt.support_vectors(), &model->support_vectors());
  const std::string bytes = SerializeKernelSvm(rebuilt);
  const SparseVector probe = SparseVector::FromPairs({{0, 0.7}, {7, 0.2}});
  for (const KernelSvmModel* m : models) {
    EXPECT_EQ(m->WireSize(), rebuilt.WireSize());
    EXPECT_EQ(SerializeKernelSvm(*m), bytes);
    EXPECT_EQ(m->Decision(probe), rebuilt.Decision(probe));
    for (const Example& ex : data) {
      EXPECT_EQ(m->Decision(ex.x), rebuilt.Decision(ex.x));
    }
  }

  const KernelSvmModel empty;
  EXPECT_EQ(empty.num_support_vectors(), 0u);
  EXPECT_TRUE(empty.support_vectors().empty());
  EXPECT_EQ(empty.Decision(probe), 0.0);
}

}  // namespace
}  // namespace p2pdt
