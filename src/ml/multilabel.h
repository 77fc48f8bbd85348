#ifndef P2PDT_ML_MULTILABEL_H_
#define P2PDT_ML_MULTILABEL_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "ml/classifier.h"
#include "ml/dataset.h"

namespace p2pdt {

/// Trains a binary classifier from {-1,+1}-labeled examples. Plug in the
/// linear-SVM trainer for PACE or the kernel-SVM trainer for CEMPaR — the
/// paper stresses that "the P2P classification algorithm in P2PDocTagger is
/// a pluggable component" (Sec. 2), and this is the plug point at the
/// single-machine layer.
using BinaryTrainer =
    std::function<Result<std::unique_ptr<BinaryClassifier>>(
        const std::vector<Example>&)>;

/// Tag-aware variant: also receives the tag being trained so the trainer
/// can derive a per-(peer, tag) RNG stream (see DeriveSeed in common/rng.h).
/// Per-tag training runs on the thread pool, so the trainer must be
/// thread-safe: calls for different tags may run concurrently and must not
/// share mutable state.
using IndexedBinaryTrainer =
    std::function<Result<std::unique_ptr<BinaryClassifier>>(
        const std::vector<Example>&, TagId)>;

/// Constant decision function; used for degenerate single-class tags (a
/// peer that has only ever seen — or never seen — a tag has nothing to
/// learn, just a fixed opinion).
class ConstantClassifier final : public BinaryClassifier {
 public:
  explicit ConstantClassifier(double value) : value_(value) {}
  double Decision(const SparseVector&) const override { return value_; }
  std::size_t WireSize() const override { return 8; }
  std::unique_ptr<BinaryClassifier> Clone() const override {
    return std::make_unique<ConstantClassifier>(value_);
  }
  double value() const { return value_; }

 private:
  double value_;
};

/// How predicted scores are turned into a tag set.
struct TagDecisionPolicy {
  /// A tag is assigned when its decision value exceeds this threshold.
  double threshold = 0.0;
  /// When no score clears the threshold, fall back to the single best tag
  /// (documents in the corpus always carry at least one tag, so an empty
  /// prediction is strictly worse than guessing the argmax).
  bool assign_best_when_empty = true;
  /// Optional hard cap on the number of tags per document (0 = no cap).
  std::size_t max_tags = 0;
};

/// One-against-all multi-label model: one binary classifier per tag
/// (paper Sec. 2: "for each c ∈ Y, we learn a function f_c : X → Y_c").
class OneVsAllModel {
 public:
  OneVsAllModel() = default;
  explicit OneVsAllModel(std::vector<std::unique_ptr<BinaryClassifier>> m)
      : models_(std::move(m)) {}

  OneVsAllModel(const OneVsAllModel& other) { *this = other; }
  OneVsAllModel& operator=(const OneVsAllModel& other);
  OneVsAllModel(OneVsAllModel&&) = default;
  OneVsAllModel& operator=(OneVsAllModel&&) = default;

  TagId num_tags() const { return static_cast<TagId>(models_.size()); }

  /// Raw decision value per tag.
  std::vector<double> Scores(const SparseVector& x) const;

  /// Tags whose decision clears the policy, sorted ascending.
  std::vector<TagId> PredictTags(const SparseVector& x,
                                 const TagDecisionPolicy& policy = {}) const;

  /// Access the per-tag classifier (nullptr when a tag had no model).
  const BinaryClassifier* model(TagId tag) const {
    return tag < models_.size() ? models_[tag].get() : nullptr;
  }
  BinaryClassifier* mutable_model(TagId tag) {
    return tag < models_.size() ? models_[tag].get() : nullptr;
  }

  /// Replaces the model for one tag (used by refinement).
  void SetModel(TagId tag, std::unique_ptr<BinaryClassifier> m);

  /// Total wire size of all per-tag models.
  std::size_t WireSize() const;

 private:
  std::vector<std::unique_ptr<BinaryClassifier>> models_;
};

/// Converts raw per-tag scores into a tag set under `policy`.
std::vector<TagId> DecideTags(const std::vector<double>& scores,
                              const TagDecisionPolicy& policy);

/// Trains one binary classifier per tag with the supplied trainer. Tags
/// with no positive examples get a degenerate always-negative model rather
/// than failing — in the P2P setting most peers only hold a few tags.
///
/// The per-tag loop is the dominant cost of every local training step and
/// fans out across the thread pool; results are bit-identical to a serial
/// run because each tag's subproblem is independent and any trainer
/// randomness is seeded from data identity, not thread identity. On error,
/// the failure of the lowest-numbered failing tag is returned.
Result<OneVsAllModel> TrainOneVsAll(const MultiLabelDataset& data,
                                    const BinaryTrainer& trainer);

Result<OneVsAllModel> TrainOneVsAll(const MultiLabelDataset& data,
                                    const IndexedBinaryTrainer& trainer);

/// Flyweight overloads: train directly from a DatasetShard view without
/// materializing the peer's data. Bit-identical to training on
/// `data.Materialize()`.
Result<OneVsAllModel> TrainOneVsAll(const DatasetShard& data,
                                    const BinaryTrainer& trainer);

Result<OneVsAllModel> TrainOneVsAll(const DatasetShard& data,
                                    const IndexedBinaryTrainer& trainer);

}  // namespace p2pdt

#endif  // P2PDT_ML_MULTILABEL_H_
