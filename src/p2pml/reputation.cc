#include "p2pml/reputation.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace p2pdt {

ReputationManager::ReputationManager(const ReputationOptions& options,
                                     MetricsRegistry* metrics,
                                     std::string classifier)
    : options_(options), metrics_(metrics), classifier_(std::move(classifier)) {}

void ReputationManager::Reset(std::size_t num_peers) {
  pairs_.assign(num_peers, std::vector<PairState>(num_peers));
  holdouts_.assign(num_peers, Holdout{});
  current_quarantined_ = 0;
  total_quarantines_ = 0;
  total_readmissions_ = 0;
  observations_ = 0;
}

template <typename Data>
void ReputationManager::SetHoldoutImpl(NodeId observer, const Data& local) {
  if (observer >= holdouts_.size()) return;
  Holdout& h = holdouts_[observer];
  h.examples.clear();
  h.positives.assign(local.num_tags(), 0);
  if (local.empty()) return;
  std::size_t want = std::min(kHoldoutSize, local.size());
  // Seeded from plan identity only, so the slice — and therefore every
  // trust score — is identical across serial and parallel runs and across
  // repeated calls.
  Rng rng(DeriveSeed(options_.seed, static_cast<uint64_t>(observer)));
  std::vector<std::size_t> picks =
      rng.SampleWithoutReplacement(local.size(), want);
  std::sort(picks.begin(), picks.end());
  for (std::size_t i : picks) {
    const MultiLabelExample& ex = local[i];
    for (TagId t : ex.tags) {
      if (t < h.positives.size()) ++h.positives[t];
    }
    h.examples.push_back(ex);
  }
}

void ReputationManager::SetHoldout(NodeId observer,
                                   const MultiLabelDataset& local) {
  SetHoldoutImpl(observer, local);
}

void ReputationManager::SetHoldout(NodeId observer,
                                   const DatasetShard& local) {
  SetHoldoutImpl(observer, local);
}

bool ReputationManager::HasHoldout(NodeId observer) const {
  return observer < holdouts_.size() && !holdouts_[observer].examples.empty();
}

double ReputationManager::BalancedAccuracy(const Holdout& holdout,
                                           const BinaryClassifier& model,
                                           TagId tag) const {
  std::size_t pos = tag < holdout.positives.size() ? holdout.positives[tag] : 0;
  std::size_t neg = holdout.examples.size() - pos;
  if (pos == 0 || neg == 0) return -1.0;
  std::size_t tp = 0;
  std::size_t tn = 0;
  for (const MultiLabelExample& ex : holdout.examples) {
    // NaN decisions compare false, i.e. count as a negative prediction —
    // garbage models settle at 0.5, well above quarantine (sanitation, not
    // reputation, is the layer that removes them).
    bool predicted = model.Decision(ex.x) > 0.0;
    if (ex.HasTag(tag)) {
      if (predicted) ++tp;
    } else {
      if (!predicted) ++tn;
    }
  }
  double tpr = static_cast<double>(tp) / static_cast<double>(pos);
  double tnr = static_cast<double>(tn) / static_cast<double>(neg);
  return 0.5 * (tpr + tnr);
}

double ReputationManager::ScoreOneVsAll(NodeId observer,
                                        const OneVsAllModel& model,
                                        const std::vector<bool>* informed) const {
  if (!HasHoldout(observer)) return -1.0;
  const Holdout& h = holdouts_[observer];
  double sum = 0.0;
  std::size_t n = 0;
  for (TagId t = 0; t < model.num_tags(); ++t) {
    if (informed != nullptr && (t >= informed->size() || !(*informed)[t])) {
      continue;
    }
    const BinaryClassifier* m = model.model(t);
    if (m == nullptr) continue;
    double bal = BalancedAccuracy(h, *m, t);
    if (bal < 0.0) continue;
    sum += bal;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : -1.0;
}

double ReputationManager::ScoreBinary(NodeId observer,
                                      const BinaryClassifier& model,
                                      TagId tag) const {
  if (!HasHoldout(observer)) return -1.0;
  return BalancedAccuracy(holdouts_[observer], model, tag);
}

bool ReputationManager::Observe(NodeId observer, NodeId contributor,
                                double score) {
  if (observer >= pairs_.size() || contributor >= pairs_[observer].size()) {
    return false;
  }
  if (score < 0.0) return false;
  PairState& p = pairs_[observer][contributor];
  if (!p.seen) {
    p.trust = score;
    p.seen = true;
  } else {
    p.trust = (1.0 - kEwmaAlpha) * p.trust +
              kEwmaAlpha * score;
  }
  ++observations_;
  if (metrics_ != nullptr) {
    metrics_->GetHistogram("peer_trust", {{"classifier", classifier_}})
        .Observe(p.trust);
  }
  bool entered_quarantine = false;
  if (!p.quarantined && p.trust < kQuarantineThreshold) {
    p.quarantined = true;
    ++current_quarantined_;
    ++total_quarantines_;
    entered_quarantine = true;
  } else if (p.quarantined && p.trust >= kReadmitThreshold) {
    p.quarantined = false;
    --current_quarantined_;
    ++total_readmissions_;
  }
  if (metrics_ != nullptr) {
    metrics_->GetGauge("quarantined_peers", {{"classifier", classifier_}})
        .Set(static_cast<double>(current_quarantined_));
  }
  return entered_quarantine;
}

double ReputationManager::Trust(NodeId observer, NodeId contributor) const {
  if (observer >= pairs_.size() || contributor >= pairs_[observer].size()) {
    return 1.0;
  }
  const PairState& p = pairs_[observer][contributor];
  return p.seen ? p.trust : 1.0;
}

bool ReputationManager::IsQuarantined(NodeId observer,
                                      NodeId contributor) const {
  if (observer >= pairs_.size() || contributor >= pairs_[observer].size()) {
    return false;
  }
  return pairs_[observer][contributor].quarantined;
}

bool ReputationManager::IsSuspect(NodeId observer, NodeId contributor) const {
  if (observer >= pairs_.size() || contributor >= pairs_[observer].size()) {
    return false;
  }
  const PairState& p = pairs_[observer][contributor];
  return p.seen && !p.quarantined && p.trust < kSuspectThreshold;
}

}  // namespace p2pdt
