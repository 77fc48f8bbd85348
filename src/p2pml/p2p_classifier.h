#ifndef P2PDT_P2PML_P2P_CLASSIFIER_H_
#define P2PDT_P2PML_P2P_CLASSIFIER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "ml/dataset.h"
#include "ml/multilabel.h"
#include "p2psim/network.h"

namespace p2pdt {

/// Outcome of one asynchronous tag prediction.
struct P2PPrediction {
  /// Predicted tags (sorted). May be empty on total failure.
  std::vector<TagId> tags;
  /// Raw per-tag scores (confidence values surfaced by SuggestTag in the
  /// demo UI, Fig. 3).
  std::vector<double> scores;
  /// False when the request could not be answered (e.g. all super-peers
  /// unreachable under churn).
  bool success = true;
  /// True when the answer came from a degraded path — the reliable
  /// transport exhausted its retries and the peer fell back to its local
  /// model instead of the distributed one. Such answers count as successes
  /// but with reduced expected quality.
  bool degraded = false;
  /// True when the request was shed by admission control at an overloaded
  /// serving peer (the typed `kOverloaded` reject). Callers may retry with
  /// backoff; unlike a transport give-up this carries no liveness signal.
  bool overloaded = false;
  /// True when the answer was served from the requester's prediction cache
  /// without any network traffic.
  bool cached = false;
};

class PeerRuntime;

/// Aggregate counters from the Byzantine-defense stack (sanitation +
/// reputation), surfaced uniformly so the experiment harness and the
/// poisoning sweep can report them per run. All zero when the defenses are
/// disabled or nothing was hostile.
struct DefenseStats {
  /// Ingestion-point rejections (sanitation failures + distrusted uploads).
  uint64_t models_rejected = 0;
  /// Votes excluded at aggregation time (quarantined contributors,
  /// out-of-bounds or outlier partials).
  uint64_t votes_discarded = 0;
  /// (observer, contributor) pairs currently quarantined.
  uint64_t quarantined = 0;
  /// Cross-validation observations folded into trust scores.
  uint64_t trust_observations = 0;
};

/// The pluggable P2P classification component of P2PDocTagger (paper
/// Sec. 2: "the P2P classification algorithm in P2PDocTagger is a pluggable
/// component"). Implementations run *as protocols inside the simulator*:
/// training and prediction exchange real simulated messages, so accuracy
/// and communication cost come from the same run.
///
/// Lifecycle: Setup(per-peer data) → Train(completion callback) → any
/// number of Predict() calls, all driven by Simulator::RunUntil. This is
/// all the paper asks of a pluggable algorithm, and all the baselines
/// implement; StatefulP2PClassifier adds the peer-state hooks.
class P2PClassifier {
 public:
  virtual ~P2PClassifier() = default;

  /// Installs the per-peer training datasets; peer_data[i] belongs to
  /// underlay node i. Must be called once before Train. Each dataset
  /// becomes a single-peer shard (DatasetShard::Own) for SetupShards.
  Status Setup(std::vector<MultiLabelDataset> peer_data, TagId num_tags) {
    std::vector<DatasetShard> shards;
    shards.reserve(peer_data.size());
    for (MultiLabelDataset& data : peer_data) {
      shards.push_back(DatasetShard::Own(std::move(data)));
    }
    return SetupShards(std::move(shards), num_tags);
  }

  /// The one setup entry point: per-peer DatasetShard views into a shared
  /// immutable corpus (see DistributeDataShared). CEMPaR and PACE store the
  /// views and never copy a document.
  virtual Status SetupShards(std::vector<DatasetShard> peer_data,
                             TagId num_tags) = 0;

  /// Starts the distributed training protocol. `on_complete` fires (in
  /// simulated time) when the protocol quiesces.
  virtual void Train(std::function<void(Status)> on_complete) = 0;

  /// Predicts tags for `x` on behalf of peer `requester`; `done` fires in
  /// simulated time.
  virtual void Predict(NodeId requester, const SparseVector& x,
                       std::function<void(P2PPrediction)> done) = 0;

  /// Protocol name for reports ("cempar", "pace", ...).
  virtual std::string name() const = 0;

 protected:
  /// SetupShards' precondition: one shard per underlay node.
  static Status CheckOneShardPerNode(std::size_t shards,
                                     const PhysicalNetwork& net) {
    if (shards == net.num_nodes()) return Status::OK();
    return Status::InvalidArgument(
        "peer_data size must equal the number of underlay nodes");
  }
  /// The error for a per-peer call (`op` names it) on a peer id outside
  /// the installed data.
  static Status UnknownPeer(const char* op, NodeId peer) {
    return Status::InvalidArgument(std::string(op) + " of unknown peer " +
                                   std::to_string(peer));
  }
};

/// A P2PClassifier whose peers run on a PeerRuntime and hold state that can
/// be checkpointed, restored and refreshed: CEMPaR and PACE. The harnesses
/// reach these hooks only through this type, so a baseline cannot be asked
/// for durability or online refresh.
class StatefulP2PClassifier : public P2PClassifier {
 public:
  /// The shared peer runtime (transport, serving queues, prediction cache,
  /// defense bookkeeping).
  virtual const PeerRuntime& runtime() const = 0;

  /// Byzantine-defense counters, read from the runtime.
  DefenseStats defense_stats() const;

  // --- Durability ----------------------------------------------------------
  //
  // A peer's trained state normally lives only in memory: a crash loses it
  // and a rejoin starts cold. These hooks let a RecoveryCoordinator
  // checkpoint per-peer state to durable storage and warm-restore it on
  // rejoin.

  /// Serializes everything peer-local that would be lost in a crash:
  /// trained models plus whatever received/replicated state the peer holds.
  /// The blob is opaque to callers; only Restore of the same protocol can
  /// consume it. Integrity (checksums, atomic writes) is the storage
  /// layer's job, not encoded here.
  virtual Result<std::string> Snapshot(NodeId peer) const = 0;

  /// Reinstates a peer's state from a Snapshot blob. Malformed blobs are
  /// rejected with a non-OK status and leave the peer evicted (cold).
  virtual Status Restore(NodeId peer, const std::string& blob) = 0;

  /// Drops the peer's volatile state, simulating what a crash destroys.
  virtual void EvictPeer(NodeId peer) = 0;

  /// Cold-start path: retrains the peer's local models from its retained
  /// training data. Returns the number of training examples refit — the
  /// retrain-work metric warm rejoin avoids (0 when nothing to retrain).
  virtual std::size_t ColdRestart(NodeId peer) = 0;

  /// One anti-entropy round bringing a rejoined peer (and any state it was
  /// responsible for) back in sync with the network: CEMPaR re-uploads to
  /// repair dead homes, PACE re-fetches missed model bundles. `done` fires
  /// in simulated time when the repair traffic quiesces.
  virtual void ResyncPeer(NodeId peer, std::function<void()> done) = 0;

  // --- Online refresh ------------------------------------------------------
  //
  // Non-stationary workloads (tag drift, vocabulary growth) make a
  // trained-once model rot. These hooks let the drift harness swap a peer's
  // training window and republish a refreshed, version-stamped model
  // through the protocol's own dissemination path — reusing its
  // reliable-transport / sanitation / reputation gates, so a refreshed
  // model is vetted exactly like an initial one.

  /// Replaces the peer's training data with a new sliding window (old
  /// documents aged out, fresh ones in). Does not retrain — pair with
  /// RefreshPeer.
  virtual Status ReplacePeerData(NodeId peer, DatasetShard window) = 0;

  /// Retrains the peer's local model(s) on its current window and
  /// republishes them with a bumped version stamp: PACE re-broadcasts the
  /// bundle, CEMPaR re-uploads to the responsible super-peers (which
  /// replace the peer's old-version model — stale-vs-fresh reconciliation).
  /// `done` fires in simulated time once the republication traffic settles.
  virtual void RefreshPeer(NodeId peer, std::function<void()> done) = 0;

  /// Version stamp of the peer's currently published model (0 until the
  /// first refresh; bumped by each RefreshPeer).
  virtual uint64_t ModelVersion(NodeId peer) const = 0;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PML_P2P_CLASSIFIER_H_
