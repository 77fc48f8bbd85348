#ifndef P2PDT_P2PML_PACE_H_
#define P2PDT_P2PML_PACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/kmeans.h"
#include "ml/linear_svm.h"
#include "ml/lsh.h"
#include "ml/multilabel.h"
#include "ml/sanitize.h"
#include "p2pml/p2p_classifier.h"
#include "p2pml/peer_runtime.h"
#include "p2psim/overlay.h"
#include "p2psim/simulator.h"

namespace p2pdt {

struct PaceOptions {
  /// Base linear-SVM trainer settings.
  LinearSvmOptions svm;
  /// Clusters per peer (centroids broadcast alongside the models).
  KMeansOptions clustering;
  /// Locality-sensitive index over model centroids.
  LshOptions lsh;
  /// Number of nearest models consulted per prediction.
  std::size_t top_k = 12;
  /// Tag-assignment policy over the ensemble scores. A consulted model
  /// votes with weight accuracy / (1 + distance).
  TagDecisionPolicy policy;
  /// Cap on contributor broadcasts in flight at once during dissemination
  /// (0 = unlimited, the legacy behavior). Every contributor still
  /// broadcasts — completions launch the next in peer order — but at 100k
  /// peers the cap bounds the simulator's event-queue footprint instead of
  /// materializing every dissemination tree at once. With the cap at or
  /// above the contributor count the issue order is byte-for-byte the
  /// legacy one.
  std::size_t max_concurrent_broadcasts = 0;
  /// Reliable dissemination: after the best-effort overlay broadcast, each
  /// contributor reliably unicasts its bundle to every online peer the
  /// broadcast missed (ACK / timeout / backoff / bounded retries), in up to
  /// three passes — the SRM-style repair that makes `received_` converge
  /// under loss. Off by default (fire-and-forget baseline).
  bool reliable_dissemination = false;
  ReliableTransportOptions transport;
  /// Model sanitation at every bundle-ingestion point (broadcast receipt,
  /// repair, resync, self-ingest, checkpoint restore). On by default:
  /// honest bundles always pass, so baseline runs are bit-identical.
  SanitizeOptions sanitize;
  /// Cross-validation reputation + quarantine (opt-in defense layer).
  ReputationOptions reputation;
  /// Finite per-peer serving capacity + admission control. PACE serves
  /// predictions locally, so the "server" is the requesting peer itself:
  /// accepted requests queue behind its ensemble evaluations, shed ones
  /// return the typed overloaded reject. Off by default (bit-identical).
  ServeOptions serve;
  /// Requester-side versioned prediction cache. Off by default.
  PredictCacheOptions predict_cache;
};

/// PACE (Ang et al., DASFAA 2010): adaptive ensemble classification in P2P
/// networks.
///
/// Training: every peer trains per-tag *linear* SVMs on its local data plus
/// k-means centroids describing where its data lives in feature space, then
/// propagates (model, centroids, accuracy estimate) to all other peers via
/// the overlay's dissemination primitive. Receivers index the models by
/// centroid in an LSH table.
///
/// Prediction is entirely local: the requester retrieves the top-k models
/// whose centroids are nearest the test vector from its LSH index and
/// combines their decisions, "weighted according to their accuracy and
/// distance from the test data" (paper Sec. 2). Zero prediction traffic is
/// PACE's structural advantage over CEMPaR; the broadcast is its cost.
///
/// Privacy note: unlike CEMPaR, "no document vectors are propagated" —
/// only weight vectors and centroids.
class Pace final : public StatefulP2PClassifier {
 public:
  Pace(Simulator& sim, PhysicalNetwork& net, Overlay& overlay,
       PaceOptions options = {});

  /// Stores the shard views directly — per-peer training data is never
  /// copied. Training materializes each binary reduction lazily, per
  /// (peer, tag), and drops it right after the fit.
  Status SetupShards(std::vector<DatasetShard> peer_data,
                     TagId num_tags) override;
  void Train(std::function<void(Status)> on_complete) override;
  void Predict(NodeId requester, const SparseVector& x,
               std::function<void(P2PPrediction)> done) override;
  std::string name() const override { return "pace"; }

  /// Fraction of (receiver, contributor) pairs that actually received the
  /// contributor's model — 1.0 on a stable network, lower under churn.
  double ModelCoverage() const;

  /// Repair passes run since Train's dissemination finished (diagnostics).
  std::size_t repair_rounds_run() const { return repair_rounds_run_; }

  /// Transport, serving queues, prediction cache and defense counters.
  const PeerRuntime& runtime() const override { return runtime_; }

  // Durability: a PACE peer's crash-volatile state is its own trained
  // bundle (one-vs-all linear models, centroids, accuracy weights) plus
  // its view of which other contributors' bundles it holds. A cold rejoin
  // must both retrain locally and re-fetch every missed bundle; a warm
  // rejoin restores both from the checkpoint.
  Result<std::string> Snapshot(NodeId peer) const override;
  Status Restore(NodeId peer, const std::string& blob) override;
  /// The peer forgets every bundle it received (including its own copy);
  /// contributed bundles held by *other* peers survive, as they would in a
  /// real deployment.
  void EvictPeer(NodeId peer) override;
  /// Retrains the peer's own bundle from retained data (deterministic →
  /// bit-identical) and marks only the self-bundle as held.
  std::size_t ColdRestart(NodeId peer) override;
  /// Anti-entropy: contributors unicast the bundles this peer is missing
  /// (reliably when the transport is on, best-effort otherwise).
  void ResyncPeer(NodeId peer, std::function<void()> done) override;

  // Online refresh (drift adaptation): a contributor retrains on its
  // current sliding window and re-broadcasts a version-stamped bundle
  // through the same dissemination + sanitation + reputation gates as the
  // initial one. Receivers holding an older version are stale: their copy
  // is evicted (version mismatch fails the Holds check) until the fresh
  // bundle reaches them, so no one ever votes with a superseded model.
  Status ReplacePeerData(NodeId peer, DatasetShard window) override;
  void RefreshPeer(NodeId peer, std::function<void()> done) override;
  uint64_t ModelVersion(NodeId peer) const override;

 private:
  struct PeerModel {
    bool valid = false;
    OneVsAllModel model;
    std::vector<SparseVector> centroids;
    /// Training-set accuracy per tag, the model's vote weight basis.
    std::vector<double> tag_accuracy;
    /// Whether the peer actually held data for a tag; uninformed per-tag
    /// models (degenerate always-negative) do not vote — a peer that has
    /// never seen a tag has no opinion about it.
    std::vector<bool> tag_informed;
    std::size_t wire_size = 0;
    /// Bundle version stamp; 0 until the first online refresh.
    uint32_t version = 0;
  };

  void TrainLocal(NodeId peer);
  /// One reliable fill-in pass over every (contributor, receiver) pair the
  /// dissemination missed so far — only `only`'s pairs when it is a peer,
  /// after a refresh. Recurses until converged or the round budget is
  /// spent, then runs `done`.
  void RepairRound(std::size_t round, NodeId only, std::function<void()> done);

  /// The single bundle-ingestion gate: every delivery (broadcast, repair,
  /// resync, self-ingest) lands here. Clamps the contributor's self-reported
  /// accuracies (unconditional bug fix), rejects bundles failing sanitation,
  /// scores + trust-updates via reputation, and only then marks the bundle
  /// received. Driver thread only.
  void AcceptBundle(NodeId receiver, NodeId contributor);
  /// Memoized sanitation verdict for a contributor's current bundle (the
  /// verdict depends only on the bundle, so N receivers share one scan).
  ModelRejectReason BundleVerdict(NodeId contributor);
  /// Probation pass: re-scores the requester's *quarantined* contributors
  /// (only — honest runs have none, keeping the fast path untouched) and
  /// re-admits any whose trust recovered.
  void ProbeQuarantined(NodeId requester);

  Simulator& sim_;
  PhysicalNetwork& net_;
  Overlay& overlay_;
  PaceOptions options_;
  PeerRuntime runtime_;
  std::size_t repair_rounds_run_ = 0;

  /// Rank value for peers that contributed no data (and so can never have a
  /// bundle to hold).
  static constexpr uint32_t kNoRank = 0xFFFFFFFFu;

  /// Version of `contributor`'s bundle that `receiver` holds. Rows of
  /// received_version_ are lazily allocated on the first refresh, so
  /// stationary runs never touch it (empty row = everything at version 0).
  uint32_t HeldVersion(NodeId receiver, uint32_t rank) const {
    if (receiver >= received_version_.size() ||
        received_version_[receiver].empty()) {
      return 0;
    }
    return received_version_[receiver][rank];
  }
  /// `receiver` now holds `contributor`'s current bundle. The version stamp
  /// is monotonic: a late delivery of a superseded bundle can never
  /// downgrade a receiver that already ingested the fresh one. A version
  /// row is allocated only once a refreshed (nonzero) version lands.
  void MarkHeld(NodeId receiver, NodeId contributor) {
    const uint32_t rank = contributor_rank_[contributor];
    received_[receiver][rank] = true;
    const uint32_t version = models_[contributor].version;
    if (version <= HeldVersion(receiver, rank)) return;
    std::vector<uint32_t>& row = received_version_[receiver];
    if (row.empty()) row.assign(contributors_.size(), 0);
    row[rank] = version;
  }

  /// True when `receiver` holds `contributor`'s *current* bundle. A copy of
  /// a superseded version does not count — old versions are evicted, not
  /// voted with.
  bool Holds(NodeId receiver, NodeId contributor) const {
    const uint32_t rank = contributor < contributor_rank_.size()
                              ? contributor_rank_[contributor]
                              : kNoRank;
    return rank != kNoRank && received_[receiver][rank] &&
           HeldVersion(receiver, rank) == models_[contributor].version;
  }

  /// Per-peer flyweight views into the shared training corpus.
  std::vector<DatasetShard> peer_data_;
  TagId num_tags_ = 0;
  std::vector<PeerModel> models_;  // one per underlay node
  /// Peers that held data at setup, ascending. Only they can ever publish a
  /// bundle, so the receipt matrix below is indexed by contributor *rank*:
  /// N×C instead of N×N. That is the flyweight that keeps 100k-peer runs
  /// affordable — with 100k nodes and 512 contributors the N×N matrix
  /// would be 10^10 cells.
  std::vector<NodeId> contributors_;
  /// NodeId -> rank in contributors_ (kNoRank for non-contributors).
  std::vector<uint32_t> contributor_rank_;
  /// received_[q][rank(p)]: peer q holds contributor p's model. The
  /// Snapshot wire format still serializes a full N-sized row (expanded on
  /// write, re-compressed on read), so checkpoints predating this layout
  /// restore unchanged.
  std::vector<std::vector<bool>> received_;
  /// received_version_[q][rank(p)]: version of p's bundle that q holds.
  /// Rows stay empty (= all zeros) until an online refresh touches them, so
  /// the stationary footprint is N empty vectors.
  std::vector<std::vector<uint32_t>> received_version_;
  /// Shared LSH index over (peer, centroid) entries; identical hash
  /// functions on every peer (common seed), per-receiver visibility is
  /// enforced via received_.
  std::unique_ptr<CosineLsh> index_;
  /// One LSH index entry: which peer's bundle, which of its centroids, and
  /// the bundle version the centroid belongs to. Entries of superseded
  /// versions are dead (version check fails at query time) — the index-side
  /// half of old-version eviction.
  struct IndexItem {
    NodeId peer;
    std::size_t cidx;
    uint32_t version;
  };
  /// LSH item id -> index entry.
  std::vector<IndexItem> index_items_;
  bool trained_ = false;

  /// Cached sanitation verdict per contributor (-1 = not yet scanned;
  /// invalidated by retraining/restore). Workers only touch their own slot.
  std::vector<int8_t> bundle_verdict_;
  /// Predictions served per requester, the probation clock.
  std::vector<uint32_t> predict_count_;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PML_PACE_H_
