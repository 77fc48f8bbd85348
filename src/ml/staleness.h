#ifndef P2PDT_ML_STALENESS_H_
#define P2PDT_ML_STALENESS_H_

#include <cstdint>
#include <vector>

namespace p2pdt {

/// Knobs of the per-peer model-staleness / drift detector.
struct StalenessOptions {
  /// Sliding window of holdout outcomes the windowed accuracy is computed
  /// over (oldest evicted first).
  std::size_t window = 64;
  /// Observations since the last (re)train before drift may be declared —
  /// guards against firing on the first few noisy predictions.
  std::size_t min_observations = 8;
  /// Fast / slow EWMA smoothing factors over accuracy and confidence. The
  /// drift signal is a *gap* against the slow (long-run) average: for
  /// confidence, slow − fast EWMA (scores are continuous, so the fast EWMA
  /// is quick and quiet); for accuracy, slow EWMA − window mean (binary
  /// outcomes make a fast EWMA too noisy — the window mean's variance
  /// shrinks with window size instead).
  double fast_alpha = 0.25;
  double slow_alpha = 0.05;
  /// Gap at which drift is declared.
  double drift_threshold = 0.2;
  /// Weight of the confidence gap relative to the accuracy gap in the
  /// combined drift score (confidence drops are a softer signal).
  double confidence_weight = 0.5;
  /// Documents since the last train at which the age component of the
  /// staleness score saturates.
  std::size_t stale_after_docs = 256;
};

/// Tracks how stale a peer's trained model is, from signals the peer can
/// observe for free during normal operation: documents arrived since the
/// last (re)train, windowed holdout accuracy (the user's own tags are the
/// ground truth for every auto-tagged document — the paper's refinement
/// loop), and the classifier's own prediction confidence.
///
/// Purely deterministic (no RNG, no clock); all state is explicit, so the
/// tracker is safe inside the bit-determinism harness. Not thread-safe —
/// one tracker per peer, driver thread only.
class ModelStalenessTracker {
 public:
  explicit ModelStalenessTracker(StalenessOptions options = {});

  /// The peer's model was (re)trained: the age counter restarts, the fast
  /// EWMAs re-anchor to the slow ones (the regime is presumed fixed) and
  /// the holdout window is cleared — old outcomes scored a dead model.
  void RecordTrained();

  /// `count` new documents arrived at the peer since the last call.
  void RecordDocument(std::size_t count = 1);

  /// One holdout observation: `correctness` in [0,1] grades how well the
  /// model's auto-tags matched the user's (1 = exact; a continuous grade
  /// like Jaccard overlap halves the per-observation variance of a 0/1
  /// outcome — which is what makes per-peer detection feasible at a
  /// handful of documents per epoch). Prediction `confidence` in [0,1];
  /// out-of-range values are clamped, NaN/infinite confidence counts as a
  /// missing confidence signal (the accuracy signal is still recorded).
  void RecordHoldout(double correctness, double confidence);

  /// Mean correctness over the current holdout window (1.0 while empty).
  double window_accuracy() const;
  std::size_t window_size() const { return window_.size(); }
  uint64_t docs_since_train() const { return docs_since_train_; }
  uint64_t observations_since_train() const {
    return observations_since_train_;
  }

  double slow_accuracy() const { return slow_accuracy_; }
  double fast_confidence() const { return fast_confidence_; }
  double slow_confidence() const { return slow_confidence_; }

  /// Combined drift signal: max(slow-EWMA accuracy − window accuracy,
  /// confidence_weight × (slow − fast confidence EWMA)), floored at 0.
  /// Grows when recent quality falls below the long-run average.
  double drift_score() const;

  /// True when the drift score exceeds drift_threshold with at least
  /// min_observations since the last train.
  bool DriftDetected() const;

  /// Staleness in [0,1]: age component (docs since train, saturating at
  /// stale_after_docs) modulated by the drift gap. Age alone caps the
  /// score at 0.25 — a model that is merely old but still accurate on
  /// stationary data never looks urgently stale (gaps below the drift
  /// threshold are dead-banded to exactly 0 for the same reason); a model
  /// that is both aged and degrading approaches 1.
  double staleness() const;

 private:
  StalenessOptions options_;
  /// Ring buffer of holdout correctness grades, newest at the back.
  std::vector<double> window_;
  double window_sum_ = 0.0;
  uint64_t docs_since_train_ = 0;
  uint64_t observations_since_train_ = 0;
  /// The accuracy EWMAs anchor on the mean of the first min_observations
  /// grades after a (re)train — a single 0/1-ish first grade would be far
  /// too noisy a reference for the slow average to start from.
  bool accuracy_seeded_ = false;
  bool confidence_seeded_ = false;
  double fast_accuracy_ = 1.0;
  double slow_accuracy_ = 1.0;
  double fast_confidence_ = 1.0;
  double slow_confidence_ = 1.0;
};

}  // namespace p2pdt

#endif  // P2PDT_ML_STALENESS_H_
