#include "ml/kmeans.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "common/cost_ledger.h"
#include "common/profile.h"
#include "common/thread_pool.h"
#include "ml/dataset.h"

namespace p2pdt {

namespace {

/// Lloyd iterations before giving up on convergence.
constexpr int kMaxIterations = 50;

}  // namespace

Result<KMeansResult> KMeansCluster(const std::vector<SparseVector>& points,
                                   const KMeansOptions& options) {
  PhaseScope profile("kmeans");
  if (points.empty()) {
    return Status::InvalidArgument("k-means requires at least one point");
  }
  if (options.k == 0) {
    return Status::InvalidArgument("k-means requires k > 0");
  }
  const std::size_t n = points.size();
  const std::size_t k = std::min(options.k, n);

  // Work in a compact feature space so dense centroid buffers stay small
  // even under the hashing trick's huge nominal dimensionality.
  FeatureRemapper remap;
  for (const auto& p : points) remap.Observe(p);
  const std::size_t dim = remap.num_features();
  std::vector<SparseVector> x(n);
  std::vector<double> xnorm2(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = remap.ToCompact(points[i]);
    xnorm2[i] = x[i].SquaredNorm();
  }

  Rng rng(options.seed);

  // Dense centroids with cached squared norms.
  std::vector<std::vector<double>> centroid(k, std::vector<double>(dim, 0.0));
  std::vector<double> cnorm2(k, 0.0);

  auto dist2 = [&](std::size_t i, std::size_t c) {
    double d = xnorm2[i] + cnorm2[c] - 2.0 * x[i].DotDense(centroid[c]);
    return std::max(d, 0.0);
  };
  auto set_centroid = [&](std::size_t c, const SparseVector& v) {
    std::fill(centroid[c].begin(), centroid[c].end(), 0.0);
    for (const auto& [id, w] : v.entries()) centroid[c][id] = w;
    cnorm2[c] = v.SquaredNorm();
  };

  // k-means++ seeding.
  set_centroid(0, x[rng.NextU64(n)]);
  std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());
  for (std::size_t c = 1; c < k; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      min_d2[i] = std::min(min_d2[i], dist2(i, c - 1));
    }
    if (CostLedger::enabled()) CostLedger::Tls().kmeans_distance_evals += n;
    std::size_t pick = rng.Categorical(min_d2);
    if (pick >= n) pick = rng.NextU64(n);  // all distances zero
    set_centroid(c, x[pick]);
  }

  std::vector<std::size_t> assignment(n, 0);
  // The assignment step reads shared centroids and writes only
  // assignment[i], so it fans out over the pool for large peer datasets;
  // small inputs run as one chunk on the caller to dodge the dispatch
  // overhead. Either path produces the same assignments, and centroid
  // recomputation stays serial to keep floating-point summation order
  // fixed.
  const std::size_t assign_chunk = n * k >= 4096 ? 256 : n;
  int iter = 0;
  for (; iter < kMaxIterations; ++iter) {
    std::atomic<bool> changed{false};
    ParallelFor(0, n, assign_chunk, [&](std::size_t lo, std::size_t hi) {
      bool local_changed = false;
      for (std::size_t i = lo; i < hi; ++i) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t best_c = 0;
        for (std::size_t c = 0; c < k; ++c) {
          double d = dist2(i, c);
          if (d < best) {
            best = d;
            best_c = c;
          }
        }
        if (assignment[i] != best_c) {
          assignment[i] = best_c;
          local_changed = true;
        }
      }
      if (local_changed) {
        changed.store(true, std::memory_order_relaxed);
      }
      // Per-chunk aggregate: the sum over chunks is n*k for any
      // partition, keeping the ledger partition-invariant.
      if (CostLedger::enabled()) {
        CostLedger::Tls().kmeans_distance_evals += (hi - lo) * k;
      }
    });
    // Stop early when no assignment changed.
    if (!changed.load(std::memory_order_relaxed) && iter > 0) break;

    // Recompute centroids.
    std::vector<std::size_t> count(k, 0);
    for (auto& cv : centroid) std::fill(cv.begin(), cv.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t c = assignment[i];
      ++count[c];
      for (const auto& [id, w] : x[i].entries()) centroid[c][id] += w;
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (count[c] == 0) {
        // Empty cluster: reseed on the point farthest from its centroid.
        std::size_t far = 0;
        double far_d = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
          double d = dist2(i, assignment[i]);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        if (CostLedger::enabled()) {
          CostLedger::Tls().kmeans_distance_evals += n;
        }
        set_centroid(c, x[far]);
        continue;
      }
      double inv = 1.0 / static_cast<double>(count[c]);
      double norm2 = 0.0;
      for (double& v : centroid[c]) {
        v *= inv;
        norm2 += v * v;
      }
      cnorm2[c] = norm2;
    }
  }

  KMeansResult result;
  result.iterations = iter;
  result.assignment = assignment;
  result.inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    result.inertia += dist2(i, assignment[i]);
  }
  if (CostLedger::enabled()) CostLedger::Tls().kmeans_distance_evals += n;
  result.centroids.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    result.centroids.push_back(remap.DenseToGlobal(centroid[c]));
  }
  return result;
}

}  // namespace p2pdt
