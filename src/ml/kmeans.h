#ifndef P2PDT_ML_KMEANS_H_
#define P2PDT_ML_KMEANS_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/sparse_vector.h"

namespace p2pdt {

struct KMeansOptions {
  /// Number of clusters requested; clamped down to the number of points.
  std::size_t k = 8;
  uint64_t seed = 1;
};

/// Result of a k-means run: cluster centroids (sparse, in the global
/// feature space) and per-point assignments.
struct KMeansResult {
  std::vector<SparseVector> centroids;
  std::vector<std::size_t> assignment;
  double inertia = 0.0;  // sum of squared distances to assigned centroids
  int iterations = 0;
};

/// Lloyd's algorithm with k-means++ seeding over sparse vectors.
///
/// PACE clusters each peer's local training data and broadcasts the
/// centroids next to the linear model; receivers use the centroids to index
/// models for locality-sensitive retrieval (paper Sec. 2).
Result<KMeansResult> KMeansCluster(const std::vector<SparseVector>& points,
                                   const KMeansOptions& options = {});

}  // namespace p2pdt

#endif  // P2PDT_ML_KMEANS_H_
