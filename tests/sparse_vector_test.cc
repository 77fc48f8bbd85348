#include "common/sparse_vector.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace p2pdt {
namespace {

SparseVector Make(std::vector<SparseVector::Entry> e) {
  return SparseVector::FromPairs(std::move(e));
}

TEST(SparseVectorTest, FromPairsSortsAndMergesDuplicates) {
  SparseVector v = Make({{5, 1.0}, {2, 2.0}, {5, 3.0}});
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_DOUBLE_EQ(v.Get(2), 2.0);
  EXPECT_DOUBLE_EQ(v.Get(5), 4.0);
  EXPECT_DOUBLE_EQ(v.Get(7), 0.0);
}

TEST(SparseVectorTest, FromPairsDropsCancellingDuplicates) {
  SparseVector v = Make({{3, 1.0}, {3, -1.0}, {1, 2.0}});
  EXPECT_EQ(v.nnz(), 1u);
  EXPECT_DOUBLE_EQ(v.Get(1), 2.0);
}

TEST(SparseVectorTest, FromDenseDropsZeros) {
  SparseVector v = SparseVector::FromDense({0.0, 1.5, 0.0, -2.0});
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_DOUBLE_EQ(v.Get(1), 1.5);
  EXPECT_DOUBLE_EQ(v.Get(3), -2.0);
}

TEST(SparseVectorTest, PushBackKeepsOrderAndSkipsZero) {
  SparseVector v;
  v.PushBack(1, 1.0);
  v.PushBack(2, 0.0);
  v.PushBack(3, 2.0);
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_EQ(v.DimensionBound(), 4u);
}

TEST(SparseVectorTest, DimensionBoundDoesNotWrapAtMaxId) {
  EXPECT_EQ(SparseVector().DimensionBound(), 0u);
  EXPECT_EQ(Make({{0, 1.0}}).DimensionBound(), 1u);
  EXPECT_EQ(Make({{1u << 30, 1.0}}).DimensionBound(), (uint64_t{1} << 30) + 1);
  EXPECT_EQ(Make({{3, 1.0}, {0xFFFFFFFEu, 2.0}}).DimensionBound(),
            uint64_t{0xFFFFFFFF});
  EXPECT_EQ(Make({{0xFFFFFFFFu, 1.0}}).DimensionBound(), uint64_t{1} << 32);
}

TEST(SparseVectorTest, DotDisjointIsZero) {
  EXPECT_DOUBLE_EQ(Make({{0, 1}, {2, 1}}).Dot(Make({{1, 5}, {3, 5}})), 0.0);
}

TEST(SparseVectorTest, DotOverlap) {
  SparseVector a = Make({{0, 1.0}, {2, 2.0}, {4, 3.0}});
  SparseVector b = Make({{2, 5.0}, {4, -1.0}});
  EXPECT_DOUBLE_EQ(a.Dot(b), 10.0 - 3.0);
  EXPECT_DOUBLE_EQ(a.Dot(b), b.Dot(a));
}

TEST(SparseVectorTest, DotDense) {
  SparseVector a = Make({{1, 2.0}, {3, 4.0}, {100, 9.0}});
  std::vector<double> w = {0.0, 3.0, 0.0, 0.5};  // id 100 out of range → 0
  EXPECT_DOUBLE_EQ(a.DotDense(w), 6.0 + 2.0);
}

TEST(SparseVectorTest, NormAndNormalize) {
  SparseVector v = Make({{0, 3.0}, {1, 4.0}});
  EXPECT_DOUBLE_EQ(v.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.SquaredNorm(), 25.0);
  v.L2Normalize();
  EXPECT_NEAR(v.Norm(), 1.0, 1e-12);
  EXPECT_NEAR(v.Get(0), 0.6, 1e-12);
}

TEST(SparseVectorTest, NormalizeZeroVectorIsNoop) {
  SparseVector v;
  v.L2Normalize();
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, ScaleByZeroClears) {
  SparseVector v = Make({{0, 1.0}});
  v.Scale(0.0);
  EXPECT_TRUE(v.empty());
}

TEST(SparseVectorTest, AddMergesAndCancels) {
  SparseVector a = Make({{0, 1.0}, {2, 2.0}});
  SparseVector b = Make({{1, 5.0}, {2, -2.0}});
  a.Add(b);
  EXPECT_DOUBLE_EQ(a.Get(0), 1.0);
  EXPECT_DOUBLE_EQ(a.Get(1), 5.0);
  EXPECT_DOUBLE_EQ(a.Get(2), 0.0);
  EXPECT_EQ(a.nnz(), 2u);  // the cancelled entry is removed
}

TEST(SparseVectorTest, AddWithAlpha) {
  SparseVector a = Make({{0, 1.0}});
  a.Add(Make({{0, 2.0}, {1, 3.0}}), 0.5);
  EXPECT_DOUBLE_EQ(a.Get(0), 2.0);
  EXPECT_DOUBLE_EQ(a.Get(1), 1.5);
}

TEST(SparseVectorTest, SquaredDistanceMatchesIdentity) {
  SparseVector a = Make({{0, 1.0}, {3, 2.0}});
  SparseVector b = Make({{0, 4.0}, {1, 1.0}});
  double expected =
      a.SquaredNorm() + b.SquaredNorm() - 2.0 * a.Dot(b);
  EXPECT_NEAR(a.SquaredDistance(b), expected, 1e-12);
  EXPECT_NEAR(a.SquaredDistance(a), 0.0, 1e-12);
}

TEST(SparseVectorTest, CosineBounds) {
  SparseVector a = Make({{0, 1.0}});
  SparseVector b = Make({{0, 7.0}});
  SparseVector c = Make({{0, -2.0}});
  SparseVector zero;
  EXPECT_NEAR(a.Cosine(b), 1.0, 1e-12);
  EXPECT_NEAR(a.Cosine(c), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.Cosine(zero), 0.0);
}

TEST(SparseVectorTest, WireSizeScalesWithNnz) {
  SparseVector v = Make({{0, 1.0}, {1, 1.0}, {2, 1.0}});
  EXPECT_EQ(v.WireSize(), 4u + 3u * 12u);
  EXPECT_EQ(SparseVector().WireSize(), 4u);
}

TEST(SparseVectorTest, ToStringReadable) {
  SparseVector v = Make({{1, 2.0}});
  EXPECT_EQ(v.ToString(), "{1:2}");
}

// Property test: sparse ops agree with dense reference on random vectors.
class SparseVectorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparseVectorPropertyTest, AgreesWithDenseReference) {
  Rng rng(GetParam());
  const std::size_t dim = 40;
  auto random_pair = [&] {
    std::vector<double> dense(dim, 0.0);
    for (std::size_t i = 0; i < dim; ++i) {
      if (rng.Bernoulli(0.3)) dense[i] = rng.Uniform(-2.0, 2.0);
    }
    return std::make_pair(SparseVector::FromDense(dense), dense);
  };
  auto [a, da] = random_pair();
  auto [b, db] = random_pair();

  double dot = 0, dist2 = 0, na = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    dot += da[i] * db[i];
    dist2 += (da[i] - db[i]) * (da[i] - db[i]);
    na += da[i] * da[i];
  }
  EXPECT_NEAR(a.Dot(b), dot, 1e-9);
  EXPECT_NEAR(a.SquaredDistance(b), dist2, 1e-9);
  EXPECT_NEAR(a.SquaredNorm(), na, 1e-9);

  SparseVector sum = a;
  sum.Add(b, 0.7);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(sum.Get(static_cast<uint32_t>(i)), da[i] + 0.7 * db[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SparseVectorPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

TEST(DenseAccumulatorTest, AccumulatesAndGrows) {
  DenseAccumulator acc(2);
  acc.Add(Make({{0, 1.0}, {5, 2.0}}));  // grows past initial dim
  acc.Add(Make({{0, 3.0}}), 2.0);
  SparseVector out = acc.ToSparse();
  EXPECT_DOUBLE_EQ(out.Get(0), 7.0);
  EXPECT_DOUBLE_EQ(out.Get(5), 2.0);
}

TEST(DenseAccumulatorTest, Scale) {
  DenseAccumulator acc(4);
  acc.Add(Make({{1, 2.0}}));
  acc.Scale(0.5);
  EXPECT_DOUBLE_EQ(acc.ToSparse().Get(1), 1.0);
}

}  // namespace
}  // namespace p2pdt
