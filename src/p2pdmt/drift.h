#ifndef P2PDT_P2PDMT_DRIFT_H_
#define P2PDT_P2PDMT_DRIFT_H_

#include <string>
#include <vector>

#include "corpus/vectorize.h"
#include "ml/staleness.h"
#include "p2pdmt/experiment.h"

namespace p2pdt {

/// When (if ever) a peer's model is retrained on its sliding window and
/// republished through the protocol's refresh path.
enum class RetrainPolicy : uint8_t {
  /// Never retrain — the degradation baseline every recovery is measured
  /// against.
  kFrozen = 0,
  /// Every peer refreshes every `periodic_interval_epochs` epochs,
  /// regardless of observed quality (the drift-oblivious upper-cost arm).
  kPeriodic,
  /// A peer refreshes when its staleness score (age × quality gap) crosses
  /// `staleness_trigger`.
  kStalenessTriggered,
  /// A peer refreshes when its tracker declares drift (fast-vs-slow EWMA
  /// gap over the threshold).
  kDriftTriggered,
};

const char* RetrainPolicyToString(RetrainPolicy p);

/// One run of the degradation/recovery harness: stream a drifting corpus
/// epoch by epoch, auto-tag every arriving document through the live P2P
/// protocol, track per-peer staleness, and retrain per `policy`.
struct DriftExperimentOptions {
  AlgorithmType algorithm = AlgorithmType::kPace;
  /// Environment template. num_peers is overridden to the stream's user
  /// count — each simulated user is one peer.
  EnvironmentOptions env;
  CemparOptions cempar;
  PaceOptions pace;

  RetrainPolicy policy = RetrainPolicy::kFrozen;
  StalenessOptions staleness;
  /// Staleness score at which kStalenessTriggered refreshes a peer.
  double staleness_trigger = 0.5;
  /// Refresh cadence of kPeriodic (in epochs).
  std::size_t periodic_interval_epochs = 2;
  /// Per-peer sliding-window capacity (documents); oldest aged out first.
  std::size_t window_documents = 48;
};

/// Quality and cost of one streamed epoch.
struct DriftEpochStats {
  std::size_t epoch = 0;
  std::size_t documents = 0;
  double macro_f1 = 0.0;
  double micro_f1 = 0.0;
  /// Mean staleness score across peers *before* this epoch's retrains.
  double mean_staleness = 0.0;
  /// Peers whose tracker newly crossed into drift this epoch.
  std::size_t drift_detections = 0;
  /// Peers refreshed at the end of this epoch.
  std::size_t retrained_peers = 0;
  /// Network traffic during the epoch (predictions + refresh republish).
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

struct DriftExperimentResult {
  std::string algorithm;
  std::string policy;
  std::size_t num_peers = 0;
  std::size_t num_epochs = 0;
  /// Earliest perturbed epoch (num_epochs when the stream is stationary).
  std::size_t first_drift_epoch = 0;

  std::vector<DriftEpochStats> epochs;  ///< epochs 1..num_epochs-1

  /// Macro-F1 of the last pre-drift epoch (or of the last epoch overall
  /// when stationary) — the reference level for dip and recovery.
  double pre_drift_f1 = 0.0;
  /// Worst macro-F1 at or after the first drift epoch.
  double min_post_drift_f1 = 0.0;
  /// Macro-F1 of the final epoch.
  double final_f1 = 0.0;
  /// pre_drift_f1 − min_post_drift_f1, floored at 0.
  double max_dip = 0.0;
  /// Epochs from the first drift epoch until macro-F1 re-entered
  /// pre_drift_f1 − kRecoveryMargin (0.02; 0 when it never dipped below;
  /// num_epochs when it never re-converged).
  std::size_t recovery_epochs = 0;
  bool reconverged = true;

  uint64_t retrains = 0;
  uint64_t drift_detections = 0;
  uint64_t give_ups = 0;
  uint64_t suspected_peers = 0;
  uint64_t total_messages = 0;
  uint64_t total_bytes = 0;
  double train_sim_seconds = 0.0;

  /// Order-sensitive FNV-1a digest over every epoch's macro-F1 bit pattern,
  /// document count, retrain count and traffic — two runs with the same
  /// digest observed the same quality trajectory *and* the same simulated
  /// protocol behavior. The serial==parallel and armed-vs-idle bit-identity
  /// tests compare exactly this.
  uint64_t fingerprint = 0;
};

/// Runs the harness over an already-vectorized stream (share one stream
/// across the policy/loss arms of a sweep — generation dominates setup).
/// Epoch 0 seeds the initial per-peer windows and the initial training;
/// epochs 1.. are streamed: predict (auto-tag) every arriving document from
/// its owner peer, feed the outcome to the owner's staleness tracker, slide
/// the window, then retrain per policy.
Result<DriftExperimentResult> RunDriftExperiment(
    const VectorizedStream& stream, const DriftExperimentOptions& options);

/// Scripted drift scenarios the sweep iterates. "none" is the stationary
/// control arm; the rest inject one event family at num_epochs / 2.
/// "new_tag" requires stream.reserve_tags >= 1.
Result<std::vector<DriftEvent>> ScenarioEvents(const std::string& scenario,
                                               const StreamOptions& stream);

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_DRIFT_H_
