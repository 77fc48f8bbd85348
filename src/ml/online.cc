#include "ml/online.h"

#include <algorithm>

namespace p2pdt {

double PassiveAggressiveUpdate(LinearSvmModel& model, const SparseVector& x,
                               double y) {
  y = y >= 0.0 ? 1.0 : -1.0;
  double loss = std::max(0.0, 1.0 - y * model.Decision(x));
  if (loss == 0.0) return 0.0;
  // PA-II step size: τ = loss / (||x||² + 1/(2C)); the bias participates as
  // an always-on feature of value 1.
  double denom = x.SquaredNorm() + 1.0 + 1.0 / (2.0 * kPassiveAggressiveC);
  double tau = loss / denom;
  model.Update(x, tau * y, 1.0);
  return loss;
}

std::size_t RefineTags(OneVsAllModel& model, const SparseVector& x,
                       const std::vector<TagId>& predicted_tags,
                       const std::vector<TagId>& corrected_tags) {
  // Normalize: the membership test below requires sorted input, and a
  // duplicated corrected tag must not be nudged twice.
  std::vector<TagId> corrected = corrected_tags;
  std::sort(corrected.begin(), corrected.end());
  corrected.erase(std::unique(corrected.begin(), corrected.end()),
                  corrected.end());

  std::size_t updated = 0;
  auto update = [&](TagId tag, double y) {
    auto* linear = dynamic_cast<LinearSvmModel*>(model.mutable_model(tag));
    if (linear == nullptr) return;
    PassiveAggressiveUpdate(*linear, x, y);
    ++updated;
  };
  // Positive corrections: tags the user says belong on the document.
  for (TagId t : corrected) update(t, 1.0);
  // Negative corrections: tags the system predicted but the user removed.
  for (TagId t : predicted_tags) {
    if (!std::binary_search(corrected.begin(), corrected.end(), t)) {
      update(t, -1.0);
    }
  }
  return updated;
}

bool RefinementLog::ShouldApply(const RefinementUpdate& update) const {
  auto it = applied_revision_.find(update.doc_id);
  return it == applied_revision_.end() || update.revision > it->second;
}

std::size_t RefinementLog::Apply(OneVsAllModel& model,
                                 const RefinementUpdate& update) {
  auto it = applied_revision_.find(update.doc_id);
  if (it != applied_revision_.end()) {
    if (update.revision == it->second) {
      ++skipped_duplicate_;
      return 0;
    }
    if (update.revision < it->second) {
      ++skipped_stale_;
      return 0;
    }
  }
  applied_revision_[update.doc_id] = update.revision;
  ++applied_;
  return RefineTags(model, update.x, update.predicted_tags,
                    update.corrected_tags);
}

}  // namespace p2pdt
