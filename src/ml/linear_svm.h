#ifndef P2PDT_ML_LINEAR_SVM_H_
#define P2PDT_ML_LINEAR_SVM_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "ml/classifier.h"
#include "ml/dataset.h"

namespace p2pdt {

/// Hyperparameters for the linear SVM trainer.
struct LinearSvmOptions {
  /// Soft-margin penalty C (> 0).
  double c = 1.0;
  /// Maximum passes over the data.
  int max_iterations = 200;
  /// Seed for the coordinate-permutation RNG.
  uint64_t seed = 1;
};

/// Linear SVM model: sparse weight vector + bias.
///
/// PACE's base learner is "the state-of-the-art linear SVM algorithm"
/// (paper Sec. 2); what peers broadcast is exactly this object, so its
/// WireSize() is the per-model communication charge.
class LinearSvmModel final : public BinaryClassifier {
 public:
  LinearSvmModel() = default;
  LinearSvmModel(SparseVector w, double bias)
      : w_(std::move(w)), bias_(bias) {}

  double Decision(const SparseVector& x) const override {
    return x.Dot(w_) + bias_;
  }

  std::size_t WireSize() const override { return w_.WireSize() + 8; }

  std::unique_ptr<BinaryClassifier> Clone() const override {
    return std::make_unique<LinearSvmModel>(*this);
  }

  const SparseVector& weights() const { return w_; }
  double bias() const { return bias_; }

  /// In-place additive update w += alpha * x, bias += alpha * bias_step.
  /// Used by the online refinement path (passive-aggressive updates).
  void Update(const SparseVector& x, double alpha, double bias_step) {
    w_.Add(x, alpha);
    bias_ += alpha * bias_step;
  }

 private:
  SparseVector w_;
  double bias_ = 0.0;
};

/// Trains an L1-loss, L2-regularized linear SVM by dual coordinate descent
/// (Hsieh et al., ICML 2008 — the LIBLINEAR algorithm).
///
/// Handles huge hashed feature spaces by remapping the features observed in
/// `data` to a compact dense range internally; the returned model is in the
/// global feature space. Requires at least one example; degenerate
/// single-class data yields a model biased to that class.
Result<LinearSvmModel> TrainLinearSvm(const std::vector<Example>& data,
                                      const LinearSvmOptions& options = {});

}  // namespace p2pdt

#endif  // P2PDT_ML_LINEAR_SVM_H_
