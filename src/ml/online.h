#ifndef P2PDT_ML_ONLINE_H_
#define P2PDT_ML_ONLINE_H_

#include <cstdint>
#include <unordered_map>

#include "ml/dataset.h"
#include "ml/linear_svm.h"
#include "ml/multilabel.h"

namespace p2pdt {

/// Passive-aggressive online update (Crammer et al. 2006), used to
/// implement the paper's Tag Refinement step: "Upon the refinement of tags,
/// P2PDocTagger will automatically update the classification model(s) in
/// the back-end, to adapt to their personal preference" (Sec. 2).
///
/// Aggressiveness bound C of PA-II; larger values move the model more per
/// correction.
inline constexpr double kPassiveAggressiveC = 1.0;

/// Applies one PA-II update to `model` for example (x, y), y ∈ {-1, +1}.
/// Returns the hinge loss *before* the update (0 means the model already
/// agreed with margin ≥ 1 and nothing changed).
double PassiveAggressiveUpdate(LinearSvmModel& model, const SparseVector& x,
                               double y);

/// Refines a one-vs-all model from a corrected tag assignment: for every
/// tag in `corrected_tags` the per-tag model is nudged positive on x, for
/// every previously-predicted tag not in the corrected set it is nudged
/// negative. `corrected_tags` need not be sorted or deduplicated — it is
/// normalized internally. Only linear per-tag models are updated (kernel
/// models are cascade-owned and rebuilt on the next training round);
/// returns the number of per-tag models actually updated.
std::size_t RefineTags(OneVsAllModel& model, const SparseVector& x,
                       const std::vector<TagId>& predicted_tags,
                       const std::vector<TagId>& corrected_tags);

/// One version-stamped tag-refinement update. In a P2P deployment the
/// correction for a document may be delivered more than once (retransmits)
/// or out of order (a user re-corrects before the first correction has
/// propagated); `revision` orders corrections of the same document, larger
/// is newer.
struct RefinementUpdate {
  /// Identity of the corrected document.
  uint64_t doc_id = 0;
  /// Correction revision for this document (larger supersedes smaller).
  uint32_t revision = 0;
  SparseVector x;
  std::vector<TagId> predicted_tags;
  std::vector<TagId> corrected_tags;
};

/// Idempotent, order-tolerant application of RefinementUpdates to a model:
/// per document, only the first delivery of each strictly-newer revision is
/// applied; duplicates and stale (out-of-order) revisions are no-ops. PA
/// updates are not commutative, so exactly-once application per revision is
/// what keeps replicas that saw different delivery schedules from diverging
/// arbitrarily.
class RefinementLog {
 public:
  /// Whether Apply would touch the model (newer revision than applied).
  bool ShouldApply(const RefinementUpdate& update) const;

  /// Applies `update` via RefineTags iff it is new; returns the number of
  /// per-tag models updated (0 for duplicate / stale deliveries).
  std::size_t Apply(OneVsAllModel& model, const RefinementUpdate& update);

  uint64_t applied() const { return applied_; }
  uint64_t skipped_duplicate() const { return skipped_duplicate_; }
  uint64_t skipped_stale() const { return skipped_stale_; }

 private:
  /// doc_id -> highest revision applied so far.
  std::unordered_map<uint64_t, uint32_t> applied_revision_;
  uint64_t applied_ = 0;
  uint64_t skipped_duplicate_ = 0;
  uint64_t skipped_stale_ = 0;
};

}  // namespace p2pdt

#endif  // P2PDT_ML_ONLINE_H_
