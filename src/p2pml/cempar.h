#ifndef P2PDT_P2PML_CEMPAR_H_
#define P2PDT_P2PML_CEMPAR_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ml/kernel_svm.h"
#include "ml/multilabel.h"
#include "ml/sanitize.h"
#include "p2pml/p2p_classifier.h"
#include "p2pml/peer_runtime.h"
#include "p2psim/chord.h"

namespace p2pdt {

struct CemparOptions {
  /// Base learner for local and cascaded models.
  KernelSvmOptions svm;
  /// Fan-in of the cascade tree at super-peers.
  std::size_t cascade_fan_in = 8;
  /// Number of regions per tag. With R regions, peer p uploads its tag-t
  /// model to the super-peer owning Hash(t, p mod R); predictions query all
  /// R regional models and combine by weighted majority voting. R = 1
  /// reproduces the single-super-peer reading of the paper; R > 1 matches
  /// CEMPaR's regional cascades and bounds any single cascade's size.
  std::size_t regions_per_tag = 1;
  /// Tag-assignment policy applied to the voted scores.
  TagDecisionPolicy policy;
  /// Reliable delivery (ACK / RTT-derived timeout / backoff / bounded
  /// retries) for upload, replication and prediction traffic. Off by
  /// default: fire-and-forget is the baseline the original experiments
  /// measured; the robustness harness compares both. With it on, each
  /// (tag, region) cascade model is also replicated to the owner's first
  /// live successor; when the transport suspects the primary dead
  /// (consecutive give-ups), the standby is promoted and a fresh replica is
  /// pushed to the next successor.
  bool reliable_transport = false;
  ReliableTransportOptions transport;
  /// Model sanitation at every ingestion point (super-peer SV intake,
  /// cascade merge, checkpoint restore) plus the requester-side vote gate.
  /// On by default: honest models always pass, so baselines are
  /// bit-identical.
  SanitizeOptions sanitize;
  /// Cross-validation reputation + quarantine at super-peers (opt-in
  /// defense layer). With it on, the requester also trims outlier votes.
  ReputationOptions reputation;
  /// Finite serving capacity + admission control at super-peers: accepted
  /// prediction requests queue behind the super-peer's evaluations, shed
  /// ones come back as a typed overload reject the requester handles by
  /// retry-after (reliable transport) or degraded local fallback. Off by
  /// default (bit-identical).
  ServeOptions serve;
  /// Requester-side versioned prediction cache. Off by default.
  PredictCacheOptions predict_cache;
  /// Coalesce prediction requests queued for the same super-peer into one
  /// round-trip (reliable transport only). A batch pays one admission
  /// charge and one ACK exchange for up to 16 documents — the flash-crowd
  /// amortization. Off by default.
  bool batch_predictions = false;
};

/// CEMPaR (Ang et al., ECML/PKDD 2009): communication-efficient P2P
/// classification via cascade SVM over a DHT.
///
/// Training: every peer trains one non-linear SVM per tag on its local
/// documents (one-against-all) and uploads the support vectors *once* to
/// the tag's super-peer — the DHT owner of Hash(tag, region) — located
/// with a Chord lookup. Super-peers cascade the collected local models
/// into regional models.
///
/// Prediction: the requester sends the untagged document vector to each
/// (distinct) super-peer it resolves, which evaluates all its regional tag
/// models and replies with scores; tags are chosen by weighted majority
/// voting across regions.
///
/// Fault tolerance: when a super-peer fails, the DHT re-resolves the tag
/// key to the next owner. RepairRound() lets peers re-upload their local
/// models to the new owner, restoring regional models — this is what the
/// fault-tolerance experiment (CLAIM6) drives.
class Cempar final : public StatefulP2PClassifier {
 public:
  Cempar(Simulator& sim, PhysicalNetwork& net, ChordOverlay& chord,
         CemparOptions options = {});

  /// Stores the shard views directly — per-peer training data is never
  /// copied, only indexed. Training is lazy: the one-against-all reductions
  /// materialize per (peer, tag) cell at fit time and are dropped right
  /// after.
  Status SetupShards(std::vector<DatasetShard> peer_data,
                     TagId num_tags) override;
  void Train(std::function<void(Status)> on_complete) override;
  void Predict(NodeId requester, const SparseVector& x,
               std::function<void(P2PPrediction)> done) override;
  std::string name() const override { return "cempar"; }

  /// Re-resolves every (tag, region) home and re-uploads local models to
  /// homes whose owner changed (e.g. after super-peer failures);
  /// `on_complete` fires when the repair traffic quiesces.
  void RepairRound(std::function<void()> on_complete);

  // Durability: a CEMPaR peer's crash-volatile state is its locally
  // trained per-(tag, region) kernel SVMs (regional cascades live at
  // super-peers and are repaired through the DHT, not checkpointed here).
  /// Blob: format version, num_tags/regions guards, then each local model
  /// as (home index, serialized kernel SVM).
  Result<std::string> Snapshot(NodeId peer) const override;
  Status Restore(NodeId peer, const std::string& blob) override;
  /// Drops the peer's local models and its cached super-peer resolutions.
  void EvictPeer(NodeId peer) override;
  /// Refits every local per-tag SVM from the peer's retained training data
  /// (deterministic, so the refit models equal the lost ones bit-for-bit).
  std::size_t ColdRestart(NodeId peer) override;
  /// Anti-entropy for a rejoined peer: one RepairRound, which re-uploads
  /// local models to any home whose collection point died while the peer
  /// was away and re-cascades.
  void ResyncPeer(NodeId peer, std::function<void()> done) override;

  // Online refresh (drift adaptation): the peer refits its local per-tag
  // SVMs on its current sliding window and re-uploads them with a bumped
  // version stamp through the normal reliable-upload path. At each home
  // the stamped upload *replaces* the peer's previous local model iff it
  // is strictly newer — duplicate and out-of-order deliveries are no-ops —
  // then the home re-cascades. That is the stale-vs-fresh reconciliation:
  // an old version can never clobber a refreshed one, and a refreshed one
  // evicts the old the moment it lands.
  Status ReplacePeerData(NodeId peer, DatasetShard window) override;
  void RefreshPeer(NodeId peer, std::function<void()> done) override;
  uint64_t ModelVersion(NodeId peer) const override;

  /// Number of (tag, region) homes whose regional model is currently
  /// hosted on an *online* node.
  std::size_t NumLiveHomes() const;

  /// Total support vectors across all regional models (diagnostics).
  std::size_t TotalRegionalSupportVectors() const;

  /// Current collection-point node of every (tag, region) home
  /// (kInvalidNode where none was established). Used by fault-injection
  /// experiments to kill exactly the super-peers.
  std::vector<NodeId> HomeOwners() const;

  /// Number of homes whose regional model currently has a standby replica.
  std::size_t NumReplicatedHomes() const;

  /// Transport, serving queues, prediction cache and defense counters.
  const PeerRuntime& runtime() const override { return runtime_; }

 private:
  struct Home {
    NodeId owner = kInvalidNode;
    /// Local models uploaded by peers, keyed by contributor.
    std::map<NodeId, KernelSvmModel> locals;
    /// Version stamp of each stored local (absent = 0, the initial
    /// publish). Guards the replace-iff-strictly-newer intake rule.
    std::map<NodeId, uint32_t> local_versions;
    KernelSvmModel regional;
    bool has_regional = false;
    /// Locals changed since the last cascade.
    bool dirty = false;
    /// Vote weight: number of contributing local models.
    double weight = 0.0;
    /// Standby super-peer holding a replica of the regional model
    /// (kInvalidNode / false until a replica was delivered).
    NodeId standby = kInvalidNode;
    bool standby_ready = false;
  };

  std::size_t HomeIndex(TagId tag, std::size_t region) const {
    return static_cast<std::size_t>(tag) * options_.regions_per_tag + region;
  }
  /// DHT key of home `h`: Hash(tag, region).
  uint64_t HomeKey(std::size_t h) const;
  /// Uploads `model` (publish version `version`) to home `h`, settling one
  /// `barrier` token. The install intake replaces the peer's stored local
  /// iff the incoming version is strictly newer than the held one.
  void UploadModel(NodeId peer, std::size_t h, KernelSvmModel model,
                   uint32_t version, std::shared_ptr<Barrier> barrier);
  /// Refits every per-tag local SVM of `peer` from its current data into
  /// local_models_[peer] (replacing what was there); returns the number of
  /// tags fitted. `why` names the caller in failure logs.
  std::size_t RefitLocals(NodeId peer, const char* why);
  /// A barrier for upload traffic: once it settles, every home re-cascades
  /// and re-replicates, then `done` runs.
  std::shared_ptr<Barrier> RecascadeAfter(std::function<void()> done);
  void CascadeAll();
  /// Pushes a replica of home `h`'s regional model from its owner to the
  /// owner's first live successor.
  void ReplicateHome(std::size_t h);
  void ReplicateRegionals();
  /// Suspicion hook: promote standbys of every home owned by `suspect` and
  /// drop cached resolutions pointing at it.
  void OnSuspect(NodeId suspect);
  /// Makes `home`'s standby its owner if the standby holds a delivered
  /// replica and is online; returns whether it did.
  bool PromoteStandby(Home& home);
  /// Degraded-mode scoring from the peer's own local models; returns false
  /// when the peer trained nothing.
  bool LocalScores(NodeId peer, const SparseVector& x,
                   std::vector<double>& scores) const;
  /// Drops every local model `contributor` uploaded to homes collected at
  /// `observer` (called once, on the quarantine transition edge) and marks
  /// those homes dirty so the next CascadeAll rebuilds without them.
  void PurgeContributor(NodeId observer, NodeId contributor);

  /// One per-tag score from one super-peer response.
  struct PredictVote {
    TagId tag;
    double score;
    double weight;
  };

  /// Requester-side robust vote over `votes` (arrival order): drops gated
  /// and outlier votes, counting them as discarded, then writes each tag's
  /// weight-averaged score into `scores`.
  void AggregateVotes(const std::vector<PredictVote>& votes,
                      std::vector<double>& scores);

  /// Super-peer side of a prediction: appends to `votes` the scores of the
  /// queried homes `owner` actually hosts for document `x` (honoring the
  /// vote-spam adversary). Shared by the local, single-request and batched
  /// paths. The super_peer_vote trace marker joins `trace` when given (a
  /// local evaluation passes the prediction's span), else the delivery's.
  void EvaluateHomes(NodeId owner, const std::vector<std::size_t>& home_list,
                     const SparseVector& x, std::vector<PredictVote>& votes,
                     const TraceContext* trace = nullptr);

  /// One queued request awaiting a coalesced super-peer round-trip.
  struct BatchMember {
    SparseVector x;
    std::vector<std::size_t> home_list;
    /// Runs at the requester when the batched response lands.
    std::function<void(const std::vector<PredictVote>&)> deliver;
    /// Runs at the requester when either leg of the round-trip gives up.
    std::function<void()> fail;
  };
  struct PendingBatch {
    std::vector<BatchMember> members;
    /// Stamp guarding the flush timer: a timer for a generation that was
    /// already flushed (size-triggered) finds a different stamp and stands
    /// down.
    uint64_t generation = 0;
  };
  void EnqueueBatch(NodeId requester, NodeId owner, BatchMember member);
  void FlushBatch(NodeId requester, NodeId owner);

  Simulator& sim_;
  PhysicalNetwork& net_;
  ChordOverlay& chord_;
  CemparOptions options_;
  PeerRuntime runtime_;
  /// Batches being assembled, keyed by (requester, owner).
  std::map<std::pair<NodeId, NodeId>, PendingBatch> batches_;
  uint64_t batch_generation_ = 0;

  /// Per-peer flyweight views into the shared training corpus.
  std::vector<DatasetShard> peer_data_;
  TagId num_tags_ = 0;
  std::vector<Home> homes_;  // indexed by HomeIndex
  /// Per-peer locally trained models (kept for repair rounds).
  std::vector<std::map<std::size_t, KernelSvmModel>> local_models_;
  /// Per-peer publish version counter (0 until the first online refresh;
  /// store-side metadata, not checkpointed).
  std::vector<uint32_t> model_version_;
  /// Per-requester cache: home index -> last known owner, learned from
  /// lookups and dropped when a request to that owner is lost.
  std::vector<std::unordered_map<std::size_t, NodeId>> owner_cache_;
  bool trained_ = false;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PML_CEMPAR_H_
