#ifndef P2PDT_P2PML_PEER_RUNTIME_H_
#define P2PDT_P2PML_PEER_RUNTIME_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/profile.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "ml/dataset.h"
#include "ml/sanitize.h"
#include "p2pml/p2p_classifier.h"
#include "p2pml/predict_cache.h"
#include "p2pml/reputation.h"
#include "p2psim/serve_queue.h"
#include "p2psim/simulator.h"
#include "p2psim/transport.h"

namespace p2pdt {

/// Phases timed into phase_seconds{classifier, phase}.
enum class Phase : uint8_t {
  kLocalTrain = 0,
  kCascadeMerge,
  kSvUpload,
  kLshIndex,
  kModelBroadcast,
  kModelRefresh,
  kTopKRetrieve,
  kVote,
  kPredict,
  kCheckpointWrite,
  kCheckpointRestore,
  kResync,
  kCount,
};

/// The `phase` label (and profiler frame) of a phase.
const char* PhaseName(Phase phase);

/// The phase_seconds{classifier, phase} histograms of one classifier label,
/// each resolved on first use and cached: no call site looks a histogram up
/// by name twice, and the registry holds only phases that ran. The network's
/// registry is installed before any classifier is built and never swapped.
/// Simulator thread only; pool workers are handed a resolved handle.
class PhaseHistograms {
 public:
  PhaseHistograms(const PhysicalNetwork& net, const char* classifier)
      : net_(net), classifier_(classifier) {}

  /// Null when the network records no metrics.
  Histogram* operator[](Phase phase);

 private:
  const PhysicalNetwork& net_;
  const char* classifier_;
  std::array<Histogram*, static_cast<std::size_t>(Phase::kCount)> handles_{};
};

/// One timed phase: a profiler frame (PhaseScope) for the whole scope, and
/// the scope's wall time observed into `hist`, when non-null, at exit.
class PhaseTimer {
 public:
  PhaseTimer(Phase phase, Histogram* hist)
      : scope_(PhaseName(phase)), hist_(hist) {}
  ~PhaseTimer() {
    if (hist_ != nullptr) hist_->Observe(wall_.ElapsedSeconds());
  }

 private:
  PhaseScope scope_;  // non-copyable, and so is the timer
  Stopwatch wall_;
  Histogram* hist_;
};

/// Pending-count completion barrier: `done` runs once every joined
/// operation has settled. It starts holding a root token, so operations
/// that settle while later ones are still being issued cannot fire it
/// early; the issuer releases the root with one last Settle().
class Barrier {
 public:
  explicit Barrier(std::function<void()> done) : done_(std::move(done)) {}
  static std::shared_ptr<Barrier> Make(std::function<void()> done) {
    return std::make_shared<Barrier>(std::move(done));
  }
  void Join() { ++pending_; }
  void Settle() {
    if (--pending_ == 0) done_();
  }

 private:
  std::size_t pending_ = 1;
  std::function<void()> done_;
};

/// The peer runtime CEMPaR and PACE each own: the plumbing both protocols
/// need around the paper's algorithm — the optional reliable transport,
/// serving queues (admission control), versioned prediction cache and
/// reputation ledger; the rejected-model and discarded-vote counts; the
/// publish epoch; the metric handles; and the snapshot header. The intake
/// gates that decide what to reject stay in each protocol.
///
/// Nothing here schedules an event or sends a message of its own accord:
/// every event and byte comes from the protocol call that asks for it.
class PeerRuntime {
 public:
  PeerRuntime(Simulator& sim, PhysicalNetwork& net, const char* classifier,
              bool reliable, const ReliableTransportOptions& transport,
              const ServeOptions& serve, const PredictCacheOptions& cache,
              const ReputationOptions& reputation);

  /// Each null unless the protocol's options turn it on (reputation: after
  /// Reset).
  ReliableTransport* transport() const { return transport_.get(); }
  ServeQueueSet* serve_queue() const { return serve_.get(); }
  PredictCacheSet* predict_cache() const { return cache_.get(); }
  ReputationManager* reputation() const { return reputation_.get(); }

  /// Model-publish epoch, the prediction cache's version key: bumped
  /// whenever a published model (or a peer's view of them) changes.
  /// Over-invalidating is safe; serving a stale answer is not.
  void BumpPublishEpoch() { ++publish_epoch_; }

  /// Setup: zeroes the defense counts and, with reputation on, rebuilds the
  /// trust ledger over each peer's holdout.
  void Reset(const std::vector<DatasetShard>& peer_data);

  /// Peers the reliable transport currently suspects dead (0 without it).
  std::size_t NumSuspected() const;

  /// Sends reliably when the transport is on, best-effort otherwise.
  /// `on_deliver` runs at the receiver. `settled`, when given, runs once per
  /// send: on delivery or loss best-effort; on ACK or give-up reliably,
  /// never on delivery, so retransmissions cannot settle twice.
  void Deliver(NodeId from, NodeId to, std::size_t bytes, MessageType type,
               std::function<void()> on_deliver,
               std::function<void()> settled = nullptr);

  /// Charges one request against `node`'s serving queue (which must exist),
  /// recording serve_queue_depth and, on a shed, requests_shed{reason}.
  Admission Admit(NodeId node);

  /// Schedules `done(out)` after `delay` simulated seconds.
  void Answer(double delay, std::function<void(P2PPrediction)> done,
              P2PPrediction out);
  /// The front of Predict: answers `done` and returns true when the
  /// protocol is not `ready` or the requester is offline (a failure), or
  /// when the requester's cache, if on, holds a fresh answer for `x`
  /// (lookups count under cache_{hits,misses,stale}).
  bool AnswerEarly(bool ready, NodeId requester, const SparseVector& x,
                   std::function<void(P2PPrediction)>& done);
  /// Caches a full answer (not a failure or a degraded fallback).
  void CacheAnswer(NodeId requester, const SparseVector& x,
                   const P2PPrediction& out);

  /// Counts one answer under predictions{outcome}.
  void CountPrediction(const P2PPrediction& out);
  /// Whether an intake gate's verdict refuses the model (anything but
  /// kNone); a refusal is counted under models_rejected{reason}.
  bool Rejects(ModelRejectReason reason);
  /// Counts `n` votes excluded at aggregation under votes_discarded.
  void RecordDiscarded(uint64_t n);
  DefenseStats defense_stats() const;

  /// This classifier's phase_seconds handle (null with metrics off), and a
  /// timer for `p` that runs until it goes out of scope.
  Histogram* phase(Phase p) { return phases_[p]; }
  PhaseTimer Time(Phase p) { return PhaseTimer(p, phases_[p]); }

  /// Header of every per-peer snapshot blob: format version, tag count, and
  /// one shape word the blob is only valid under (CEMPaR: regions per tag;
  /// PACE: network size). The reader checks all three.
  static void PutSnapshotHeader(TagId num_tags, std::size_t shape,
                                std::string& out);
  Status GetSnapshotHeader(const std::string& blob, std::size_t& offset,
                           TagId num_tags, std::size_t shape) const;

 private:
  /// The counter in `slot`, resolved on first use. Metrics must be on.
  Counter& CounterFor(Counter*& slot, const char* family,
                      const char* key = nullptr, const char* value = nullptr);

  Simulator& sim_;
  PhysicalNetwork& net_;
  const char* classifier_;
  ReputationOptions reputation_options_;
  std::unique_ptr<ReliableTransport> transport_;
  std::unique_ptr<ServeQueueSet> serve_;
  std::unique_ptr<PredictCacheSet> cache_;
  std::unique_ptr<ReputationManager> reputation_;
  uint64_t publish_epoch_ = 0;
  uint64_t models_rejected_ = 0;
  uint64_t votes_discarded_ = 0;

  PhaseHistograms phases_;
  Counter* predictions_[3] = {};     // ok, degraded, failed
  Counter* cache_outcomes_[3] = {};  // by CacheOutcome
  Counter* shed_[3] = {};            // by AdmitOutcome
  Counter* rejected_[8] = {};        // by ModelRejectReason
  Counter* discarded_ = nullptr;
  Gauge* queue_depth_ = nullptr;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PML_PEER_RUNTIME_H_
