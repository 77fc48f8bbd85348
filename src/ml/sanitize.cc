#include "ml/sanitize.h"

#include <cmath>
#include <string>

namespace p2pdt {

const char* ModelRejectReasonToString(ModelRejectReason reason) {
  switch (reason) {
    case ModelRejectReason::kNone:
      return "none";
    case ModelRejectReason::kNonFinite:
      return "non_finite";
    case ModelRejectReason::kNormBound:
      return "norm_bound";
    case ModelRejectReason::kDimension:
      return "dimension";
    case ModelRejectReason::kTagMismatch:
      return "tag_mismatch";
    case ModelRejectReason::kOversized:
      return "oversized";
    case ModelRejectReason::kDistrusted:
      return "distrusted";
  }
  return "unknown";
}

namespace {

// Non-finite dominates magnitude: NaN compares false against any bound, so
// test finiteness first.
ModelRejectReason CheckScalar(double v) {
  if (!std::isfinite(v)) return ModelRejectReason::kNonFinite;
  if (std::fabs(v) > kSanitizeMaxAbsValue) return ModelRejectReason::kNormBound;
  return ModelRejectReason::kNone;
}

}  // namespace

ModelRejectReason SanitizeVector(const SparseVector& v) {
  double sq = 0.0;
  for (const auto& [id, w] : v.entries()) {
    if (id >= kSanitizeMaxDimension) return ModelRejectReason::kDimension;
    ModelRejectReason r = CheckScalar(w);
    if (r != ModelRejectReason::kNone) return r;
    sq += w * w;
  }
  if (!std::isfinite(sq)) return ModelRejectReason::kNonFinite;
  if (sq > kSanitizeMaxNorm * kSanitizeMaxNorm) {
    return ModelRejectReason::kNormBound;
  }
  return ModelRejectReason::kNone;
}

ModelRejectReason SanitizeLinear(const LinearSvmModel& model) {
  ModelRejectReason r = SanitizeVector(model.weights());
  if (r != ModelRejectReason::kNone) return r;
  return CheckScalar(model.bias());
}

ModelRejectReason SanitizeKernelModel(const KernelSvmModel& model,
                                      const SanitizeOptions& opts) {
  if (model.num_support_vectors() > opts.max_support_vectors) {
    return ModelRejectReason::kOversized;
  }
  for (const SupportVector& sv : model.support_vectors()) {
    ModelRejectReason r = SanitizeVector(sv.x);
    if (r != ModelRejectReason::kNone) return r;
    r = CheckScalar(sv.y);
    if (r != ModelRejectReason::kNone) return r;
    r = CheckScalar(sv.alpha);
    if (r != ModelRejectReason::kNone) return r;
  }
  return CheckScalar(model.bias());
}

ModelRejectReason SanitizeOneVsAll(const OneVsAllModel& model,
                                   TagId expected_tags,
                                   const SanitizeOptions& opts) {
  if (expected_tags > 0 && model.num_tags() != expected_tags) {
    return ModelRejectReason::kTagMismatch;
  }
  for (TagId t = 0; t < model.num_tags(); ++t) {
    const BinaryClassifier* m = model.model(t);
    if (m == nullptr) continue;
    ModelRejectReason r = ModelRejectReason::kNone;
    if (auto* lin = dynamic_cast<const LinearSvmModel*>(m)) {
      r = SanitizeLinear(*lin);
    } else if (auto* ker = dynamic_cast<const KernelSvmModel*>(m)) {
      r = SanitizeKernelModel(*ker, opts);
    } else if (auto* c = dynamic_cast<const ConstantClassifier*>(m)) {
      r = CheckScalar(c->value());
    }
    if (r != ModelRejectReason::kNone) return r;
  }
  return ModelRejectReason::kNone;
}

ModelRejectReason SanitizeCentroids(const std::vector<SparseVector>& centroids,
                                    const SanitizeOptions& opts) {
  if (centroids.size() > opts.max_centroids) {
    return ModelRejectReason::kOversized;
  }
  for (const SparseVector& c : centroids) {
    ModelRejectReason r = SanitizeVector(c);
    if (r != ModelRejectReason::kNone) return r;
  }
  return ModelRejectReason::kNone;
}

double ClampAccuracy(double accuracy) {
  if (std::isnan(accuracy)) return 0.0;
  if (accuracy < 0.0) return 0.0;
  if (accuracy > 1.0) return 1.0;
  return accuracy;
}

Status RejectedModelStatus(ModelRejectReason reason) {
  return Status::RejectedModel(std::string("model failed sanitation: ") +
                               ModelRejectReasonToString(reason));
}

}  // namespace p2pdt
