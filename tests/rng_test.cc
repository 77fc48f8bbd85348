#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, BoundedValuesInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextU64(17), 17u);
  }
}

TEST(RngTest, BoundedCoversAllResidues) {
  Rng rng(6);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextU64(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(8);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRate) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.15);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(12);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Exponential(5.0);
    ASSERT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(rng.Pareto(4.0, 1.5), 4.0);
  }
}

TEST(RngTest, ParetoMeanMatchesTheory) {
  // E[Pareto(xm, a)] = a*xm/(a-1); heavy tail needs many samples and slack.
  Rng rng(14);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Pareto(1.0, 3.0);
  EXPECT_NEAR(sum / n, 1.5, 0.05);
}

TEST(RngTest, GammaPositiveAndMeanMatches) {
  Rng rng(15);
  for (double shape : {0.3, 1.0, 2.5, 10.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
      double g = rng.Gamma(shape);
      ASSERT_GT(g, 0.0) << "shape " << shape;
      sum += g;
    }
    EXPECT_NEAR(sum / n, shape, shape * 0.06) << "shape " << shape;
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(16);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> v = rng.Dirichlet(8, 0.3);
    ASSERT_EQ(v.size(), 8u);
    double sum = std::accumulate(v.begin(), v.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (double x : v) EXPECT_GE(x, 0.0);
  }
}

TEST(RngTest, DirichletSmallAlphaIsSkewed) {
  Rng rng(17);
  double max_small = 0, max_large = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    auto a = rng.Dirichlet(10, 0.05);
    auto b = rng.Dirichlet(10, 50.0);
    max_small += *std::max_element(a.begin(), a.end());
    max_large += *std::max_element(b.begin(), b.end());
  }
  // Small alpha concentrates mass on few coordinates.
  EXPECT_GT(max_small / trials, 0.7);
  EXPECT_LT(max_large / trials, 0.3);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(18);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) {
    std::size_t k = rng.Categorical(w);
    ASSERT_LT(k, 3u);
    ++counts[k];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(counts[0]), 3.0, 0.2);
}

TEST(RngTest, CategoricalAllZeroReturnsSize) {
  Rng rng(19);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_EQ(rng.Categorical(w), 2u);
  EXPECT_EQ(rng.Categorical({}), 0u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(20);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    auto s = rng.SampleWithoutReplacement(50, 20);
    ASSERT_EQ(s.size(), 20u);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 20u);
    for (std::size_t x : s) EXPECT_LT(x, 50u);
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(22);
  auto s = rng.SampleWithoutReplacement(10, 10);
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(23);
  Rng child = a.Fork();
  // The child stream should not just replay the parent.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == child.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

class ZipfParamTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfParamTest, PmfSumsToOneAndIsMonotone) {
  const double s = GetParam();
  ZipfSampler sampler(100, s);
  double sum = 0;
  for (uint64_t k = 0; k < 100; ++k) {
    double p = sampler.Pmf(k);
    EXPECT_GE(p, 0.0);
    if (k > 0 && s > 0) EXPECT_LE(p, sampler.Pmf(k - 1) + 1e-12);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(ZipfParamTest, SamplesMatchPmfOnHead) {
  const double s = GetParam();
  ZipfSampler sampler(50, s);
  Rng rng(31);
  std::vector<int> counts(50, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
  for (uint64_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(counts[k] / static_cast<double>(n), sampler.Pmf(k), 0.01)
        << "s=" << s << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfParamTest,
                         ::testing::Values(0.0, 0.5, 1.0, 1.5, 2.0));

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfSampler sampler(10, 0.0);
  for (uint64_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(sampler.Pmf(k), 0.1, 1e-9);
  }
}

/// The binary search ZipfSampler used before its guide table: the first
/// CDF entry >= u. The guide table must return the same index for every u.
uint64_t BinarySearchInverseCdf(const std::vector<double>& cdf, double u) {
  std::size_t lo = 0, hi = cdf.size() - 1;
  while (lo < hi) {
    std::size_t mid = (lo + hi) / 2;
    if (cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TEST(ZipfTest, GuideTableEqualsBinarySearch) {
  std::size_t checked = 0;
  for (uint64_t n : {1u, 2u, 3u, 60u, 3000u, 13318u}) {
    for (double s : {0.0, 0.5, 1.0, 1.1, 2.0}) {
      ZipfSampler sampler(n, s);
      const std::vector<double>& cdf = sampler.cdf();
      ASSERT_EQ(cdf.size(), n);
      // Every CDF entry and every guide bucket edge j/n, with both float
      // neighbours: the points where an off-by-one would show.
      std::vector<double> points(cdf.begin(), cdf.end());
      for (uint64_t j = 0; j <= n; ++j) {
        points.push_back(static_cast<double>(j) / static_cast<double>(n));
      }
      std::vector<double> us;
      for (double p : points) {
        for (double u : {std::nextafter(p, 0.0), p, std::nextafter(p, 1.0)}) {
          if (u >= 0.0 && u < 1.0) us.push_back(u);
        }
      }
      us.push_back(0.0);
      us.push_back(std::nextafter(1.0, 0.0));
      for (double u : us) {
        ASSERT_EQ(sampler.InverseCdf(u), BinarySearchInverseCdf(cdf, u))
            << "n=" << n << " s=" << s << " u=" << u;
      }
      checked += us.size();
      // Sample draws exactly one uniform and inverts it.
      Rng a(n * 31 + static_cast<uint64_t>(s * 10)), b = a;
      for (int i = 0; i < 20000; ++i) {
        ASSERT_EQ(sampler.Sample(a),
                  BinarySearchInverseCdf(cdf, b.NextDouble()));
      }
    }
  }
  EXPECT_GT(checked, 400000u);
}

}  // namespace
}  // namespace p2pdt
