#include "ml/linear_svm.h"

#include <algorithm>
#include <cmath>

#include "common/profile.h"
#include "common/rng.h"

namespace p2pdt {

namespace {

/// Stop when the maximal projected-gradient violation over a pass falls
/// below this tolerance.
constexpr double kDualCdTolerance = 1e-3;

}  // namespace

Result<LinearSvmModel> TrainLinearSvm(const std::vector<Example>& data,
                                      const LinearSvmOptions& options) {
  PhaseScope profile("linear_svm");
  if (data.empty()) {
    return Status::InvalidArgument("cannot train linear SVM on empty data");
  }
  if (options.c <= 0.0) {
    return Status::InvalidArgument("linear SVM requires C > 0");
  }

  // Compact the (possibly hashed, very sparse) global feature space so the
  // dense weight array is proportional to the features actually observed.
  FeatureRemapper remap;
  for (const auto& ex : data) remap.Observe(ex.x);
  const std::size_t dim = remap.num_features();
  // One extra slot for the bias (feature augmentation: x' = [x; 1]).
  const std::size_t wdim = dim + 1;

  std::vector<SparseVector> x(data.size());
  std::vector<double> y(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    x[i] = remap.ToCompact(data[i].x);
    y[i] = data[i].y >= 0.0 ? 1.0 : -1.0;
  }

  // Dual coordinate descent (Hsieh et al. 2008), L1-loss:
  //   min_α  ½ αᵀ Q̄ α − eᵀα,  0 ≤ α_i ≤ C,  Q̄_ij = y_i y_j x_iᵀx_j.
  std::vector<double> alpha(data.size(), 0.0);
  std::vector<double> w(wdim, 0.0);
  std::vector<double> qii(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    qii[i] = x[i].SquaredNorm() + 1.0;
    if (qii[i] <= 0.0) qii[i] = 1e-12;  // all-zero vector guard
  }

  auto wdot = [&](std::size_t i) { return x[i].DotDense(w) + w[dim]; };
  auto axpy_w = [&](std::size_t i, double step) {
    for (const auto& [id, v] : x[i].entries()) w[id] += step * v;
    w[dim] += step;
  };

  Rng rng(options.seed);
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    rng.Shuffle(order);
    double max_violation = 0.0;
    for (std::size_t i : order) {
      // Gradient of the dual objective w.r.t. α_i.
      double g = y[i] * wdot(i) - 1.0;
      // Projected gradient.
      double pg = g;
      if (alpha[i] <= 0.0) {
        pg = std::min(g, 0.0);
      } else if (alpha[i] >= options.c) {
        pg = std::max(g, 0.0);
      }
      max_violation = std::max(max_violation, std::fabs(pg));
      if (pg == 0.0) continue;
      double old_alpha = alpha[i];
      alpha[i] = std::clamp(old_alpha - g / qii[i], 0.0, options.c);
      double delta = (alpha[i] - old_alpha) * y[i];
      if (delta != 0.0) axpy_w(i, delta);
    }
    if (max_violation < kDualCdTolerance) break;
  }

  double bias = w[dim];
  w.pop_back();
  return LinearSvmModel(remap.DenseToGlobal(w), bias);
}

}  // namespace p2pdt
