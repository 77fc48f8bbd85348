#ifndef P2PDT_ML_SANITIZE_H_
#define P2PDT_ML_SANITIZE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sparse_vector.h"
#include "common/status.h"
#include "ml/kernel_svm.h"
#include "ml/linear_svm.h"
#include "ml/multilabel.h"

namespace p2pdt {

/// Why an ingested model was rejected. kNone means the payload is clean.
/// The lower_snake_case rendering is the `reason` label of the
/// models_rejected metric family and a CSV column value, so the strings are
/// part of the observable surface — keep them stable.
enum class ModelRejectReason : uint8_t {
  kNone = 0,
  /// NaN or infinity anywhere in weights, bias, alphas, labels or
  /// centroids.
  kNonFinite,
  /// A finite value (or a vector norm) exceeds the configured magnitude
  /// bound — the vote-spam signature: a "valid" model whose decision values
  /// drown every honest vote.
  kNormBound,
  /// A feature id beyond the plausible lexicon bound.
  kDimension,
  /// Per-tag vectors (models, tag_accuracy, tag_informed) disagree with the
  /// corpus tag count — truncated or padded uploads.
  kTagMismatch,
  /// Structurally too large: support-vector or centroid counts beyond the
  /// configured caps.
  kOversized,
  /// Contributor is quarantined by the reputation subsystem; the payload
  /// itself may be well-formed. Counted under the same metric family so one
  /// counter answers "how much did ingestion refuse, and why".
  kDistrusted,
};

/// Stable lower_snake_case name (metric label / CSV value).
const char* ModelRejectReasonToString(ModelRejectReason reason);

// Bounds applied at every model-ingestion point. They are loose enough
// that every honestly trained model passes (the bit-identical-baseline
// requirement) while catching NaN/inf payloads, absurd magnitudes and
// out-of-lexicon dimensions.

/// Any single weight, bias, alpha, label, centroid coordinate or vote
/// score must have absolute value <= this.
inline constexpr double kSanitizeMaxAbsValue = 1.0e6;
/// L2 norm bound for weight vectors, support vectors and centroids.
inline constexpr double kSanitizeMaxNorm = 1.0e6;
/// Exclusive upper bound on feature ids (hashed-lexicon head-room; the
/// synthetic corpus uses a few thousand dimensions).
inline constexpr uint32_t kSanitizeMaxDimension = 1u << 24;

/// The sanitation switch and the size caps, applied at the same points.
struct SanitizeOptions {
  bool enabled = true;
  /// Cap on support vectors per kernel model.
  std::size_t max_support_vectors = 1u << 16;
  /// Cap on centroids per PACE bundle.
  std::size_t max_centroids = 4096;
};

/// Each check returns kNone when the object is within bounds. Checks are
/// pure and cheap (one pass over the data) and never mutate their input.
ModelRejectReason SanitizeVector(const SparseVector& v);
ModelRejectReason SanitizeLinear(const LinearSvmModel& model);
ModelRejectReason SanitizeKernelModel(const KernelSvmModel& model,
                                      const SanitizeOptions& opts);
/// Checks every per-tag classifier (linear, kernel or constant). When
/// `expected_tags` > 0 the model must cover exactly that many tags.
ModelRejectReason SanitizeOneVsAll(const OneVsAllModel& model,
                                   TagId expected_tags,
                                   const SanitizeOptions& opts);
ModelRejectReason SanitizeCentroids(const std::vector<SparseVector>& centroids,
                                    const SanitizeOptions& opts);

/// Maps a self-reported accuracy into [0, 1]: NaN becomes 0 (a peer that
/// reports garbage gets no vote weight), anything above 1 is clamped to 1,
/// negatives to 0. Identity for every honest value, so applying it
/// unconditionally at bundle receipt keeps baseline runs bit-identical.
double ClampAccuracy(double accuracy);

/// Wraps a reject reason as a kRejectedModel status (never OK — call only
/// with reason != kNone).
Status RejectedModelStatus(ModelRejectReason reason);

}  // namespace p2pdt

#endif  // P2PDT_ML_SANITIZE_H_
