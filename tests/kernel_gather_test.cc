// Oracle checks of the posting-list kernels (KernelMatrix for training,
// KernelSvmModel::Decision for serving) against the reference merge,
// SparseVector::Dot and Kernel::operator().

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <latch>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/kernel_svm.h"

// Largest single allocation since the last reset. Requests past 1 GiB are
// refused outright, so an allocation sized from a 32-bit feature id fails
// the check instead of exhausting the host.
namespace {
std::atomic<std::size_t> g_largest_alloc{0};
constexpr std::size_t kRefuseAbove = std::size_t{1} << 30;
}  // namespace

void* operator new(std::size_t n) {
  std::size_t prev = g_largest_alloc.load(std::memory_order_relaxed);
  while (n > prev && !g_largest_alloc.compare_exchange_weak(prev, n)) {
  }
  if (n > kRefuseAbove) throw std::bad_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// GCC cannot see that the replaced operator new pairs with free().
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace p2pdt {
namespace {

constexpr double kTol = 1e-12;
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<Kernel> AllKernels() {
  return {Kernel::Rbf(0.5), Kernel::Rbf(2.0), Kernel::Linear(),
          Kernel::Polynomial(1.0, 1.0, 2), Kernel::Polynomial(0.5, 0.25, 3)};
}

SparseVector RandomVector(Rng& rng, uint32_t dim, std::size_t nnz,
                          double scale) {
  std::vector<SparseVector::Entry> e;
  for (std::size_t k = 0; k < nnz; ++k) {
    e.emplace_back(static_cast<uint32_t>(rng.NextU64(dim)),
                   scale * rng.Uniform(-1.0, 1.0));
  }
  return SparseVector::FromPairs(std::move(e));
}

// Pairs of the shapes the kernels see: overlapping, identical,
// near-identical, disjoint (even vs odd ids), unnormalized, and empty on
// either side.
std::vector<std::pair<SparseVector, SparseVector>> RandomPairs(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<SparseVector, SparseVector>> pairs;
  for (int t = 0; t < 40; ++t) {
    SparseVector a = RandomVector(rng, 200, 1 + rng.NextU64(60), 1.0);
    SparseVector b = RandomVector(rng, 200, 1 + rng.NextU64(60), 1.0);
    a.L2Normalize();
    b.L2Normalize();
    pairs.emplace_back(a, b);
    pairs.emplace_back(a, a);
    // Near-duplicates: ‖a‖² + ‖b‖² − 2a·b can round below zero.
    std::vector<SparseVector::Entry> nudged = a.entries();
    for (auto& [id, w] : nudged) w *= 1.0 + 1e-9 * rng.Uniform(-1.0, 1.0);
    pairs.emplace_back(a, SparseVector::FromPairs(nudged));
    std::vector<SparseVector::Entry> even, odd;
    for (uint32_t id = 0; id < 60; ++id) {
      (id % 2 == 0 ? even : odd).emplace_back(id, rng.Uniform(0.1, 1.0));
    }
    pairs.emplace_back(SparseVector::FromPairs(even),
                       SparseVector::FromPairs(odd));
    pairs.emplace_back(RandomVector(rng, 100, 30, 3.0),
                       RandomVector(rng, 100, 30, 3.0));
    pairs.emplace_back(SparseVector(), b);
    pairs.emplace_back(a, SparseVector());
  }
  pairs.emplace_back(SparseVector(), SparseVector());
  return pairs;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// A one-SV model whose decision is exactly 0 + 1·1·K(sv, x).
double GatherK(const Kernel& kernel, const SparseVector& sv,
               const SparseVector& x) {
  return KernelSvmModel(kernel, {{sv, 1.0, 1.0}}, 0.0).Decision(x);
}

double ReferenceDecision(const KernelSvmModel& m, const SparseVector& x) {
  double sum = m.bias();
  for (const auto& sv : m.support_vectors()) {
    sum += sv.alpha * sv.y * m.kernel()(sv.x, x);
  }
  return sum;
}

// K as the posting kernels must produce it: FromDot over the merge's own
// dot product when both norms pass Gatherable, the merge otherwise.
double MergeDotK(const Kernel& kernel, const SparseVector& a,
                 const SparseVector& b) {
  const double a2 = a.SquaredNorm(), b2 = b.SquaredNorm();
  if (!Kernel::Gatherable(a2) || !Kernel::Gatherable(b2)) return kernel(a, b);
  return kernel.FromDot(a.Dot(b), a2, b2);
}

double MergeDotDecision(const KernelSvmModel& m, const SparseVector& x) {
  double sum = m.bias();
  for (const auto& sv : m.support_vectors()) {
    sum += sv.alpha * sv.y * MergeDotK(m.kernel(), sv.x, x);
  }
  return sum;
}

// Linear and polynomial K are exact: the gather sums the merge's products
// in the merge's order. RBF may differ by rounding only.
void ExpectMatches(const Kernel& kernel, double got, double want) {
  if (kernel.type == KernelType::kRbf) {
    EXPECT_NEAR(got, want, kTol) << kernel.ToString();
    EXPECT_LE(got, 1.0) << kernel.ToString();
  } else {
    EXPECT_TRUE(SameBits(got, want))
        << kernel.ToString() << ": " << got << " vs " << want;
  }
}

TEST(KernelGatherTest, FromDotMatchesReference) {
  for (const Kernel& kernel : AllKernels()) {
    for (const auto& [a, b] : RandomPairs(11)) {
      ExpectMatches(kernel,
                    kernel.FromDot(a.Dot(b), a.SquaredNorm(), b.SquaredNorm()),
                    kernel(a, b));
    }
  }
}

TEST(KernelGatherTest, DecisionMatchesReferenceOnFiniteVectors) {
  for (const Kernel& kernel : AllKernels()) {
    for (const auto& [a, b] : RandomPairs(23)) {
      ExpectMatches(kernel, GatherK(kernel, a, b), kernel(a, b));
      ExpectMatches(kernel, GatherK(kernel, b, a), kernel(b, a));
    }
  }
}

TEST(KernelGatherTest, IdenticalVectorsGiveExactRbfOne) {
  Rng rng(5);
  for (int t = 0; t < 50; ++t) {
    SparseVector a = RandomVector(rng, 5000, 1 + rng.NextU64(80), 4.0);
    EXPECT_EQ(GatherK(Kernel::Rbf(1.0), a, a), 1.0);
    EXPECT_EQ(KernelMatrix({{a, 1.0}, {a, -1.0}}, Kernel::Rbf(1.0))[1], 1.0);
  }
}

TEST(KernelGatherTest, MultiSvDecisionMatchesReference) {
  Rng rng(31);
  for (const Kernel& kernel : AllKernels()) {
    std::vector<SupportVector> svs;
    for (int s = 0; s < 25; ++s) {
      SparseVector x = RandomVector(rng, 300, 1 + rng.NextU64(40), 1.0);
      x.L2Normalize();
      svs.push_back({x, s % 2 == 0 ? 1.0 : -1.0, rng.Uniform(0.01, 1.0)});
    }
    KernelSvmModel model(kernel, svs, 0.125);
    for (int q = 0; q < 30; ++q) {
      SparseVector x = RandomVector(rng, 300, 1 + rng.NextU64(40), 1.0);
      x.L2Normalize();
      const double want = ReferenceDecision(model, x);
      EXPECT_NEAR(model.Decision(x), want, 25 * kTol) << kernel.ToString();
    }
  }
}

TEST(KernelGatherTest, KernelMatrixMatchesReference) {
  Rng rng(47);
  for (const Kernel& kernel : AllKernels()) {
    std::vector<Example> data;
    for (const auto& [a, b] : RandomPairs(rng.NextU64())) {
      if (data.size() >= 60) break;
      data.push_back({a, 1.0});
      data.push_back({b, -1.0});
    }
    const std::size_t n = data.size();
    const std::vector<double> k = KernelMatrix(data, kernel);
    ASSERT_EQ(k.size(), n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ExpectMatches(kernel, k[i * n + j], kernel(data[i].x, data[j].x));
        EXPECT_TRUE(SameBits(k[i * n + j], k[j * n + i]));
      }
    }
  }
}

TEST(KernelGatherTest, NonFiniteNormsTakeTheMergeBitForBit) {
  const SparseVector finite = SparseVector::FromPairs({{2, 0.5}, {7, -0.25}});
  const std::vector<SparseVector> poison = {
      SparseVector::FromPairs({{2, kNan}}),
      SparseVector::FromPairs({{2, kInf}, {9, 1.0}}),
      SparseVector::FromPairs({{7, -kInf}}),
      SparseVector::FromPairs({{3, 1e200}}),
      SparseVector::FromPairs({{2, 1e200}, {7, 1.0}}),
      SparseVector::FromPairs({{7, kInf}, {8, kNan}}),
  };
  for (const Kernel& kernel : AllKernels()) {
    for (const SparseVector& p : poison) {
      for (const auto& [sv, x] : {std::pair{p, finite}, std::pair{finite, p},
                                  std::pair{p, p}}) {
        const double want = 0.0 + 1.0 * 1.0 * kernel(sv, x);
        EXPECT_TRUE(SameBits(GatherK(kernel, sv, x), want))
            << kernel.ToString() << " " << sv.ToString() << " vs "
            << x.ToString();
      }
      const std::vector<Example> data = {{finite, 1.0}, {p, -1.0}};
      const std::vector<double> k = KernelMatrix(data, kernel);
      for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t j = 0; j < 2; ++j) {
          EXPECT_TRUE(SameBits(k[i * 2 + j], kernel(data[i].x, data[j].x)))
              << kernel.ToString() << " " << p.ToString();
        }
      }
    }
  }
  // The undefended garbage-model cascade relies on an inf coordinate
  // pushing RBF K to exactly 0, and on a 1e30 one doing the same.
  const SparseVector inf = SparseVector::FromPairs({{2, kInf}});
  const SparseVector big = SparseVector::FromPairs({{2, 1e30}});
  EXPECT_EQ(GatherK(Kernel::Rbf(1.0), inf, finite), 0.0);
  EXPECT_EQ(GatherK(Kernel::Rbf(1.0), big, finite), 0.0);
  EXPECT_EQ(GatherK(Kernel::Rbf(1.0), big, big), 1.0);
}

TEST(KernelGatherTest, ExtremeIdsGiveTheReferenceDecision) {
  const std::vector<uint32_t> huge = {1u << 30, 0xFFFFFFFEu, 0xFFFFFFFFu};
  for (const Kernel& kernel : AllKernels()) {
    for (uint32_t id : huge) {
      const SparseVector small_a =
          SparseVector::FromPairs({{1, 0.6}, {40, 0.8}});
      const SparseVector small_b =
          SparseVector::FromPairs({{1, 0.3}, {17, -0.5}, {40, 0.4}});
      const SparseVector big_a =
          SparseVector::FromPairs({{1, 0.5}, {40, 0.25}, {id, 0.75}});
      const SparseVector big_b =
          SparseVector::FromPairs({{17, 0.5}, {id, -1.5}});
      const SparseVector max_only = SparseVector::FromPairs({{id, 2.0}});
      const std::vector<SparseVector> svs_sets[] = {
          {small_a, small_b}, {small_a, big_a}, {big_b, max_only}};
      for (const auto& set : svs_sets) {
        std::vector<SupportVector> svs;
        for (std::size_t s = 0; s < set.size(); ++s) {
          svs.push_back({set[s], s % 2 == 0 ? 1.0 : -1.0, 0.5 + s});
        }
        KernelSvmModel model(kernel, svs, -0.25);
        for (const SparseVector& x :
             {small_a, small_b, big_a, big_b, max_only, SparseVector()}) {
          ExpectMatches(kernel, model.Decision(x), ReferenceDecision(model, x));
        }
      }
    }
  }
}

TEST(KernelGatherTest, TrainsOnAPoolAtExtremeIds) {
  // Two single-SV models of opposite labels; their ids sit at or past 2^30.
  const SparseVector pos =
      SparseVector::FromPairs({{1u << 30, 1.0}, {0xFFFFFFFFu, 0.5}});
  const SparseVector neg =
      SparseVector::FromPairs({{0xFFFFFFFEu, 1.0}, {0xFFFFFFFFu, 0.25}});
  KernelSvmOptions opt;
  opt.kernel = Kernel::Rbf(0.5);
  opt.c = 10.0;
  KernelSvmModel a(opt.kernel, {{pos, 1.0, 1.0}}, 0.0);
  KernelSvmModel b(opt.kernel, {{neg, -1.0, 1.0}}, 0.0);
  Result<KernelSvmModel> merged = CascadeMerge({&a, &b}, opt);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->num_support_vectors(), 2u);
  // Two points of opposite labels: α1 = α2 = 2 / (K11 + K22 − 2 K12), and
  // the decision is +1 / −1 at the points.
  const double k12 = opt.kernel(pos, neg);
  const double alpha = 2.0 / (2.0 - 2.0 * k12);
  for (const auto& sv : merged->support_vectors()) {
    EXPECT_NEAR(sv.alpha, alpha, 1e-9);
  }
  EXPECT_NEAR(merged->Decision(pos), 1.0, 1e-9);
  EXPECT_NEAR(merged->Decision(neg), -1.0, 1e-9);
  for (const SparseVector& x :
       {pos, neg, SparseVector::FromPairs({{3, 1.0}})}) {
    EXPECT_NEAR(merged->Decision(x), ReferenceDecision(*merged, x), kTol);
  }
}

TEST(KernelGatherTest, NoAllocationIsSizedFromAFeatureId) {
  const SparseVector top = SparseVector::FromPairs(
      {{5, 0.5}, {1u << 30, 1.0}, {0xFFFFFFFEu, 0.5}, {0xFFFFFFFFu, 0.25}});
  const SparseVector low = SparseVector::FromPairs({{5, 1.0}, {9, 0.5}});
  const SparseVector top_only = SparseVector::FromPairs({{0xFFFFFFFFu, 1.0}});
  const std::vector<Example> pool = {{top, 1.0}, {top_only, -1.0}, {low, 1.0}};
  for (const Kernel& kernel : AllKernels()) {
    KernelSvmModel model(kernel, {{top, 1.0, 1.0}, {top_only, -1.0, 0.5}}, 0.0);
    KernelSvmModel low_model(kernel, {{low, 1.0, 1.0}}, 0.0);
    g_largest_alloc.store(0);
    const double both_top = model.Decision(top);
    const double query_top = low_model.Decision(top);
    const double model_top = model.Decision(low);
    const std::vector<double> k = KernelMatrix(pool, kernel);
    KernelSvmOptions opt;
    opt.kernel = kernel;
    Result<KernelSvmModel> trained = TrainKernelSvm(pool, opt);
    // Every vector here has at most four entries: anything near a megabyte
    // was sized from an id.
    EXPECT_LT(g_largest_alloc.load(), std::size_t{1} << 20)
        << kernel.ToString();
    ASSERT_TRUE(trained.ok());
    ExpectMatches(kernel, both_top, ReferenceDecision(model, top));
    ExpectMatches(kernel, query_top, ReferenceDecision(low_model, top));
    ExpectMatches(kernel, model_top, ReferenceDecision(model, low));
    EXPECT_EQ(k.size(), 9u);
  }
}

TEST(KernelGatherTest, DecisionEqualsMergeDotBitForBit) {
  Rng rng(59);
  for (const Kernel& kernel : AllKernels()) {
    const auto pairs = RandomPairs(61);
    std::vector<SupportVector> svs;
    for (const auto& [a, b] : pairs) {
      EXPECT_TRUE(SameBits(GatherK(kernel, a, b), MergeDotK(kernel, a, b)))
          << kernel.ToString() << " " << a.ToString() << " vs "
          << b.ToString();
      svs.push_back({a, svs.size() % 2 == 0 ? 1.0 : -1.0,
                     rng.Uniform(0.01, 1.0)});
    }
    // One model over every shape's first vector, scored on both sides.
    KernelSvmModel model(kernel, svs, -0.375);
    for (const auto& [a, b] : pairs) {
      for (const SparseVector* x : {&a, &b}) {
        EXPECT_TRUE(
            SameBits(model.Decision(*x), MergeDotDecision(model, *x)))
            << kernel.ToString() << " " << x->ToString();
      }
    }
  }
  const SparseVector shared = SparseVector::FromPairs({{3, 0.5}, {8, -0.25}});
  const SparseVector disjoint = SparseVector::FromPairs({{4, 1.5}, {90, 2.0}});
  const SparseVector overlap =
      SparseVector::FromPairs({{3, -1.0}, {4, 0.125}, {8, 3.0}, {77, 1.0}});
  const SparseVector poison = SparseVector::FromPairs({{3, kInf}, {8, 1.0}});
  // The empty query comes first, before the model has an index.
  const std::vector<SparseVector> queries = {
      SparseVector(), SparseVector::FromPairs({{3, 0.75}, {8, 0.5}, {77, -2.0}}),
      SparseVector::FromPairs({{5, 1.0}}), shared, disjoint,
      SparseVector::FromPairs({{8, kNan}})};
  for (const Kernel& kernel : AllKernels()) {
    // Shared, disjoint, duplicate, empty and non-gatherable SVs together.
    KernelSvmModel model(kernel,
                         {{shared, 1.0, 0.5},
                          {disjoint, -1.0, 0.25},
                          {overlap, 1.0, 1.0},
                          {shared, -1.0, 0.75},
                          {SparseVector(), 1.0, 0.5},
                          {poison, -1.0, 0.125},
                          {overlap, -1.0, 2.0}},
                         0.0625);
    for (const SparseVector& x : queries) {
      EXPECT_TRUE(SameBits(model.Decision(x), MergeDotDecision(model, x)))
          << kernel.ToString() << " " << x.ToString();
    }
  }
}

TEST(KernelGatherTest, KernelMatrixEqualsMergeDotBitForBit) {
  for (const Kernel& kernel : AllKernels()) {
    std::vector<Example> data;
    for (const auto& [a, b] : RandomPairs(67)) {
      if (data.size() >= 120) break;
      data.push_back({a, 1.0});
      data.push_back({b, -1.0});
    }
    // A non-gatherable example takes the merge in its row and column.
    data.push_back({SparseVector::FromPairs({{2, kInf}, {9, 1.0}}), 1.0});
    data.push_back({SparseVector::FromPairs({{2, 0.5}, {9, -0.5}}), -1.0});
    const std::size_t n = data.size();
    const std::vector<double> k = KernelMatrix(data, kernel);
    ASSERT_EQ(k.size(), n * n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_TRUE(SameBits(k[i * n + j],
                             MergeDotK(kernel, data[i].x, data[j].x)))
            << kernel.ToString() << " at (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(KernelGatherTest, FirstDecisionFromManyThreads) {
  constexpr int kThreads = 4;
  Rng rng(71);
  std::vector<SupportVector> svs;
  for (int s = 0; s < 40; ++s) {
    SparseVector x = RandomVector(rng, 400, 1 + rng.NextU64(50), 1.0);
    x.L2Normalize();
    svs.push_back({x, s % 2 == 0 ? 1.0 : -1.0, rng.Uniform(0.01, 1.0)});
  }
  std::vector<SparseVector> queries;
  for (int q = 0; q < 30; ++q) {
    queries.push_back(RandomVector(rng, 400, 1 + rng.NextU64(50), 1.0));
  }
  for (const Kernel& kernel : AllKernels()) {
    const KernelSvmModel serial(kernel, svs, 0.25);
    std::vector<double> want;
    for (const SparseVector& x : queries) want.push_back(serial.Decision(x));
    // Several fresh models, each first scored by all threads at once.
    for (int round = 0; round < 5; ++round) {
      const KernelSvmModel fresh(kernel, svs, 0.25);
      std::vector<std::vector<double>> got(kThreads);
      std::latch start(kThreads);
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          start.arrive_and_wait();
          for (const SparseVector& x : queries) {
            got[t].push_back(fresh.Decision(x));
          }
        });
      }
      for (std::thread& th : threads) th.join();
      for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t].size(), want.size());
        for (std::size_t q = 0; q < want.size(); ++q) {
          EXPECT_TRUE(SameBits(got[t][q], want[q]))
              << kernel.ToString() << " thread " << t << " query " << q;
        }
      }
    }
  }
}

}  // namespace
}  // namespace p2pdt
