#ifndef P2PDT_P2PML_REPUTATION_H_
#define P2PDT_P2PML_REPUTATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "ml/dataset.h"
#include "ml/multilabel.h"
#include "p2psim/network.h"

namespace p2pdt {

/// Tuning for the reputation subsystem. Disabled by default: reputation is
/// an opt-in defense layer, and the acceptance bar is that enabling it with
/// zero adversaries leaves every run bit-identical — which holds because
/// all of its interventions are *gates* (quarantine, suspect-only
/// re-weighting) that never trigger for honest contributors.
struct ReputationOptions {
  bool enabled = false;
  uint64_t seed = 0x5EED7;
};

/// Cross-validation-based trust ledger, the paper-adjacent answer to "PACE
/// weights votes by *self-reported* accuracy" (pace.h): every peer scores
/// the models it receives on a small local held-out slice and maintains an
/// EWMA trust per contributor.
///
/// Scoring uses per-tag *balanced* accuracy (mean of true-positive and
/// true-negative rate) over tags with both classes present in the holdout:
/// a label-flipped model lands near 0 (both rates collapse), any honest
/// model — including the degenerate one-class models that non-IID peers
/// legitimately produce — lands at or above 0.5. That 0.5 floor is what
/// lets the quarantine threshold sit safely below every honest score.
///
/// All state is index-addressed vectors (no hashing), all queries are pure,
/// and updates run only on the simulator driver thread, so the subsystem
/// adds no cross-thread traffic and keeps serial == parallel determinism.
class ReputationManager {
 public:
  /// Examples in the local held-out validation slice. The slice is a
  /// deterministic subsample of the peer's local data and is NOT removed
  /// from training, so trained models are unchanged by enabling reputation.
  static constexpr std::size_t kHoldoutSize = 16;
  /// EWMA smoothing for trust updates after the first observation (the
  /// first observation sets trust outright, so one delivery of an
  /// anti-correlated model is enough to quarantine its author).
  static constexpr double kEwmaAlpha = 0.4;
  /// Trust below this quarantines the contributor: its models are excluded
  /// from voting and new uploads are refused.
  static constexpr double kQuarantineThreshold = 0.3;
  /// A quarantined contributor is re-admitted when probation observations
  /// push trust back above this (hysteresis: readmit > quarantine).
  static constexpr double kReadmitThreshold = 0.5;
  /// Below this (but above quarantine) a contributor is "suspect": its
  /// self-reported accuracy is replaced by min(self, observed) and its
  /// vote weight is scaled by trust.
  static constexpr double kSuspectThreshold = 0.45;
  /// Every Nth prediction a requester re-scores its contributors
  /// (probation): quarantined peers that retrained honestly climb back
  /// above kReadmitThreshold, sleepers that turned malicious decay.
  static constexpr std::size_t kProbationInterval = 8;

  /// `metrics` may be null (no-op recording); `classifier` labels the
  /// emitted metric families (peer_trust, quarantined_peers).
  ReputationManager(const ReputationOptions& options, MetricsRegistry* metrics,
                    std::string classifier);

  /// Sizes the trust matrix for `num_peers` contributors per observer and
  /// clears all state.
  void Reset(std::size_t num_peers);

  /// Installs `observer`'s held-out slice: a deterministic subsample of its
  /// local data (seeded from options.seed and the peer id only).
  void SetHoldout(NodeId observer, const MultiLabelDataset& local);
  /// Flyweight overload: same deterministic draws, same holdout, no
  /// materialization of the peer's data.
  void SetHoldout(NodeId observer, const DatasetShard& local);
  bool HasHoldout(NodeId observer) const;

  /// Scores a multi-tag model on the observer's holdout. Only tags with
  /// both classes present are evaluable; `informed` (when non-null)
  /// restricts scoring to tags the contributor claims competence on.
  /// Returns the mean per-tag balanced accuracy in [0, 1], or -1 when
  /// nothing was evaluable (no holdout, no overlapping tags).
  double ScoreOneVsAll(NodeId observer, const OneVsAllModel& model,
                       const std::vector<bool>* informed) const;

  /// Scores one binary classifier for one tag; -1 when the holdout lacks a
  /// class for that tag.
  double ScoreBinary(NodeId observer, const BinaryClassifier& model,
                     TagId tag) const;

  /// Folds an observation (a Score* result >= 0) into the observer's trust
  /// for `contributor`. Returns true when this observation pushed the
  /// contributor *into* quarantine (the transition edge, so callers can
  /// purge already-merged contributions exactly once).
  bool Observe(NodeId observer, NodeId contributor, double score);

  /// Current trust in [0, 1]; 1 for never-observed contributors (open
  /// system: unknown peers are trusted until evidence arrives, which keeps
  /// the no-adversary fast path untouched).
  double Trust(NodeId observer, NodeId contributor) const;
  bool IsQuarantined(NodeId observer, NodeId contributor) const;
  /// Low-trust but not quarantined: votes survive with penalized weight.
  bool IsSuspect(NodeId observer, NodeId contributor) const;
  /// EWMA of observed scores; 1 for never-observed contributors. This is
  /// the "observed" side of PACE's min(self_reported, observed) rule.
  double ObservedAccuracy(NodeId observer, NodeId contributor) const {
    return Trust(observer, contributor);
  }

  /// (observer, contributor) pairs currently in quarantine.
  std::size_t num_quarantined() const { return current_quarantined_; }
  uint64_t total_quarantines() const { return total_quarantines_; }
  uint64_t total_readmissions() const { return total_readmissions_; }
  uint64_t observations() const { return observations_; }

 private:
  struct PairState {
    double trust = 1.0;
    bool seen = false;
    bool quarantined = false;
  };
  struct Holdout {
    std::vector<MultiLabelExample> examples;
    /// Positives per tag within the holdout.
    std::vector<std::size_t> positives;
  };

  double BalancedAccuracy(const Holdout& holdout, const BinaryClassifier& model,
                          TagId tag) const;

  template <typename Data>
  void SetHoldoutImpl(NodeId observer, const Data& local);

  ReputationOptions options_;
  MetricsRegistry* metrics_;
  std::string classifier_;
  std::vector<std::vector<PairState>> pairs_;  // [observer][contributor]
  std::vector<Holdout> holdouts_;
  std::size_t current_quarantined_ = 0;
  uint64_t total_quarantines_ = 0;
  uint64_t total_readmissions_ = 0;
  uint64_t observations_ = 0;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PML_REPUTATION_H_
