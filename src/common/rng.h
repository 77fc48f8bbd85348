#ifndef P2PDT_COMMON_RNG_H_
#define P2PDT_COMMON_RNG_H_

#include <cstdint>
#include <vector>

namespace p2pdt {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// SplitMix64) with the sampling distributions the corpus generator and the
/// P2P simulator need.
///
/// Every stochastic component in the library takes an explicit `Rng` (or a
/// seed) so that corpora, peer data partitions, overlay topologies and churn
/// traces are exactly reproducible from a scenario seed. The standard
/// library's distributions are deliberately avoided: their output is
/// implementation-defined, which would make experiment outputs differ across
/// standard libraries.
class Rng {
 public:
  /// Seeds the generator. Two `Rng`s with the same seed produce identical
  /// streams on every platform.
  explicit Rng(uint64_t seed = 0xA02DCCF3ULL);

  /// Next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform in [0, bound). `bound` must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  uint64_t NextU64(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Standard normal via Box–Muller.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential with the given mean (= 1/rate). Used by churn models for
  /// session lifetimes.
  double Exponential(double mean);

  /// Pareto (heavy-tailed) with scale `xm` > 0 and shape `alpha` > 0. Used by
  /// churn models: peer lifetimes in deployed P2P systems are heavy-tailed.
  double Pareto(double xm, double alpha);

  /// Samples a probability vector from a symmetric Dirichlet(alpha) of the
  /// given dimension. Small alpha => highly skewed vectors; used to create
  /// non-IID class distributions across peers.
  std::vector<double> Dirichlet(std::size_t dim, double alpha);

  /// Gamma(shape, 1) via Marsaglia–Tsang; building block for Dirichlet.
  double Gamma(double shape);

  /// Samples an index from an (unnormalized, non-negative) weight vector.
  /// Returns weights.size() when all weights are zero/empty.
  std::size_t Categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffles `v` in place.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    if (v.size() < 2) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      std::size_t j = static_cast<std::size_t>(NextU64(i + 1));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// Draws `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

  /// Derives an independent child generator; the child's stream does not
  /// overlap this generator's under practical use. Used to give each peer its
  /// own deterministic stream.
  Rng Fork();

 private:
  uint64_t s_[4];
};

/// Mixes a base seed with up to two stream keys into an independent child
/// seed (SplitMix64 finalizer over the concatenation). Parallel trainers
/// key their per-task RNG streams by data identity — DeriveSeed(base, peer,
/// tag) — so results never depend on which thread ran the task.
uint64_t DeriveSeed(uint64_t base, uint64_t key_a, uint64_t key_b = 0);

/// Precomputed inverse-CDF sampler for a Zipf distribution over [0, n).
/// O(n) setup; a sample starts from a guide table (Chen & Asau's index
/// method) and scans, so it costs O(1) on average.
class ZipfSampler {
 public:
  /// `n` > 0 and below 2^32; exponent `s` >= 0.
  ZipfSampler(uint64_t n, double s);

  /// InverseCdf(rng.NextDouble()).
  uint64_t Sample(Rng& rng) const;

  /// The first rank k whose CDF entry is >= u, for u in [0, 1) — the index
  /// a binary search over cdf() returns.
  uint64_t InverseCdf(double u) const;

  /// Probability mass of rank `k` (0-based).
  double Pmf(uint64_t k) const;

  uint64_t n() const { return n_; }
  double s() const { return s_; }
  /// Cumulative masses, nondecreasing; the last entry is exactly 1.
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  /// Guide bucket of a value in [0, 1]: floor(x * n), clamped to n - 1.
  /// Monotone in x, which is what makes the guide table exact.
  std::size_t Bucket(double x) const;

  uint64_t n_;
  double s_;
  std::vector<double> cdf_;
  /// guide_[j] = the first rank whose CDF entry falls in bucket j or later.
  /// Every u in bucket j has its answer at or after guide_[j].
  std::vector<uint32_t> guide_;
};

}  // namespace p2pdt

#endif  // P2PDT_COMMON_RNG_H_
