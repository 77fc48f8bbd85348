#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace p2pdt {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t DeriveSeed(uint64_t base, uint64_t key_a, uint64_t key_b) {
  uint64_t state = base;
  uint64_t mixed = SplitMix64(state);
  state ^= mixed + 0x9E3779B97F4A7C15ULL * key_a;
  mixed = SplitMix64(state);
  state ^= mixed + 0xBF58476D1CE4E5B9ULL * key_b;
  return SplitMix64(state);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::NextU64() {
  // xoshiro256**
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextU64(uint64_t bound) {
  assert(bound > 0);
  // Lemire-style rejection to avoid modulo bias.
  uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextU64());  // full range
  return lo + static_cast<int64_t>(NextU64(span));
}

double Rng::NextDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Normal(double mean, double stddev) {
  // Box–Muller; draws two uniforms per normal. u1 in (0, 1].
  double u1 = 1.0 - NextDouble();
  double u2 = NextDouble();
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  double u = 1.0 - NextDouble();  // (0, 1]
  return -mean * std::log(u);
}

double Rng::Pareto(double xm, double alpha) {
  assert(xm > 0.0 && alpha > 0.0);
  double u = 1.0 - NextDouble();  // (0, 1]
  return xm / std::pow(u, 1.0 / alpha);
}

double Rng::Gamma(double shape) {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape >= 1 (Marsaglia–Tsang trick).
    double u = NextDouble();
    while (u <= 0.0) u = NextDouble();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = Normal();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = NextDouble();
    if (u < 1.0 - 0.0331 * (x * x) * (x * x)) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::Dirichlet(std::size_t dim, double alpha) {
  assert(dim > 0 && alpha > 0.0);
  std::vector<double> out(dim);
  double sum = 0.0;
  for (auto& x : out) {
    x = Gamma(alpha);
    sum += x;
  }
  if (sum <= 0.0) {
    // Numerically degenerate draw: fall back to uniform.
    for (auto& x : out) x = 1.0 / static_cast<double>(dim);
    return out;
  }
  for (auto& x : out) x /= sum;
  return out;
}

std::size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0) return weights.size();
  double target = NextDouble() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    acc += weights[i];
    if (target < acc) return i;
  }
  // Floating-point slack: return the last positive-weight index.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size();
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t k) {
  assert(k <= n);
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  // Partial Fisher–Yates: only the first k positions need randomizing.
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + static_cast<std::size_t>(NextU64(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

Rng Rng::Fork() { return Rng(NextU64() ^ 0x5851F42D4C957F2DULL); }

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n), s_(s) {
  assert(n > 0 && n <= UINT32_MAX && s >= 0.0);
  cdf_.resize(n);
  double acc = 0.0;
  for (uint64_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  for (auto& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding
  guide_.resize(n);
  std::size_t k = 0;
  for (std::size_t j = 0; j < n; ++j) {
    while (Bucket(cdf_[k]) < j) ++k;  // Bucket(cdf_.back()) == n - 1
    guide_[j] = static_cast<uint32_t>(k);
  }
}

std::size_t ZipfSampler::Bucket(double x) const {
  return std::min<std::size_t>(
      static_cast<std::size_t>(x * static_cast<double>(n_)), n_ - 1);
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  return InverseCdf(rng.NextDouble());
}

uint64_t ZipfSampler::InverseCdf(double u) const {
  // The answer a has cdf_[a] >= u, so Bucket(cdf_[a]) >= Bucket(u) and
  // guide_[Bucket(u)] <= a; every rank in between has a CDF entry < u.
  // The scan stops by the last entry, which is 1 > u.
  std::size_t k = guide_[Bucket(u)];
  while (cdf_[k] < u) ++k;
  return k;
}

double ZipfSampler::Pmf(uint64_t k) const {
  assert(k < n_);
  if (k == 0) return cdf_[0];
  return cdf_[k] - cdf_[k - 1];
}

}  // namespace p2pdt
