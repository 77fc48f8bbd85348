#include "p2pml/peer_runtime.h"

#include <iterator>

#include "ml/serialization.h"

namespace p2pdt {

namespace {

/// Format version of the per-peer snapshot layouts (inside the checkpoint
/// envelope, which already guards integrity; this guards evolution).
constexpr uint8_t kSnapshotVersion = 1;

constexpr const char* kPhaseNames[] = {
    "local_train",      "cascade_merge",      "sv_upload",
    "lsh_index",        "model_broadcast",    "model_refresh",
    "top_k_retrieve",   "vote",               "predict",
    "checkpoint_write", "checkpoint_restore", "resync"};
static_assert(std::size(kPhaseNames) ==
              static_cast<std::size_t>(Phase::kCount));
static_assert(static_cast<std::size_t>(ModelRejectReason::kDistrusted) < 8,
              "rejected_ needs a slot per reason");

}  // namespace

const char* PhaseName(Phase phase) {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

Histogram* PhaseHistograms::operator[](Phase phase) {
  MetricsRegistry* metrics = net_.metrics();
  if (metrics == nullptr) return nullptr;
  Histogram*& h = handles_[static_cast<std::size_t>(phase)];
  if (h == nullptr) {
    h = &metrics->GetHistogram(
        "phase_seconds",
        {{"classifier", classifier_}, {"phase", PhaseName(phase)}});
  }
  return h;
}

PeerRuntime::PeerRuntime(Simulator& sim, PhysicalNetwork& net,
                         const char* classifier, bool reliable,
                         const ReliableTransportOptions& transport,
                         const ServeOptions& serve,
                         const PredictCacheOptions& cache,
                         const ReputationOptions& reputation)
    : sim_(sim),
      net_(net),
      classifier_(classifier),
      reputation_options_(reputation),
      phases_(net, classifier) {
  if (reliable) {
    transport_ = std::make_unique<ReliableTransport>(sim_, net_, transport);
  }
  if (serve.enabled) serve_ = std::make_unique<ServeQueueSet>(serve);
  if (cache.enabled) cache_ = std::make_unique<PredictCacheSet>(cache);
}

void PeerRuntime::Reset(const std::vector<DatasetShard>& peer_data) {
  models_rejected_ = 0;
  votes_discarded_ = 0;
  reputation_.reset();
  if (!reputation_options_.enabled) return;
  reputation_ = std::make_unique<ReputationManager>(
      reputation_options_, net_.metrics(), classifier_);
  reputation_->Reset(peer_data.size());
  // Holdouts are subsamples of (not carve-outs from) the local data, so
  // trained models are unchanged by enabling reputation.
  for (NodeId p = 0; p < peer_data.size(); ++p) {
    reputation_->SetHoldout(p, peer_data[p]);
  }
}

std::size_t PeerRuntime::NumSuspected() const {
  if (transport_ == nullptr) return 0;
  std::size_t n = 0;
  for (NodeId node = 0; node < net_.num_nodes(); ++node) {
    if (transport_->IsSuspected(node)) ++n;
  }
  return n;
}

void PeerRuntime::Deliver(NodeId from, NodeId to, std::size_t bytes,
                          MessageType type, std::function<void()> on_deliver,
                          std::function<void()> settled) {
  if (transport_ != nullptr) {
    transport_->SendReliable(from, to, bytes, type, std::move(on_deliver),
                             settled, settled);
  } else if (settled == nullptr) {
    net_.Send(from, to, bytes, type, std::move(on_deliver));
  } else {
    net_.Send(
        from, to, bytes, type,
        [on_deliver = std::move(on_deliver), settled] {
          on_deliver();
          settled();
        },
        settled);
  }
}

Counter& PeerRuntime::CounterFor(Counter*& slot, const char* family,
                                 const char* key, const char* value) {
  if (slot == nullptr) {
    MetricLabels labels = {{"classifier", classifier_}};
    if (key != nullptr) labels.emplace_back(key, value);
    slot = &net_.metrics()->GetCounter(family, std::move(labels));
  }
  return *slot;
}

Admission PeerRuntime::Admit(NodeId node) {
  Admission a = serve_->Admit(node, sim_.Now());
  if (MetricsRegistry* metrics = net_.metrics()) {
    if (queue_depth_ == nullptr) {
      queue_depth_ = &metrics->GetGauge("serve_queue_depth",
                                        {{"classifier", classifier_}});
    }
    queue_depth_->Set(static_cast<double>(a.depth));
    if (a.outcome != AdmitOutcome::kAccept) {
      CounterFor(shed_[static_cast<std::size_t>(a.outcome)], "requests_shed",
                 "reason", AdmitOutcomeToString(a.outcome))
          .Increment();
    }
  }
  return a;
}

void PeerRuntime::Answer(double delay,
                         std::function<void(P2PPrediction)> done,
                         P2PPrediction out) {
  sim_.Schedule(delay, [done = std::move(done), out = std::move(out)] {
    done(std::move(out));
  });
}

bool PeerRuntime::AnswerEarly(bool ready, NodeId requester,
                              const SparseVector& x,
                              std::function<void(P2PPrediction)>& done) {
  if (!ready || !net_.IsOnline(requester)) {
    Answer(0.0, std::move(done), {{}, {}, false});
    return true;
  }
  if (cache_ == nullptr) return false;
  CacheOutcome oc = CacheOutcome::kMiss;
  const P2PPrediction* hit = cache_->ForNode(requester).Lookup(
      FingerprintVector(x), publish_epoch_, sim_.Now(), &oc);
  if (net_.metrics() != nullptr) {
    const char* family = oc == CacheOutcome::kHit     ? "cache_hits"
                         : oc == CacheOutcome::kStale ? "cache_stale"
                                                      : "cache_misses";
    CounterFor(cache_outcomes_[static_cast<std::size_t>(oc)], family)
        .Increment();
  }
  if (hit == nullptr) return false;
  P2PPrediction out = *hit;
  out.cached = true;
  Answer(0.0, std::move(done), std::move(out));
  return true;
}

void PeerRuntime::CacheAnswer(NodeId requester, const SparseVector& x,
                              const P2PPrediction& out) {
  if (cache_ == nullptr || !out.success || out.degraded) return;
  cache_->ForNode(requester).Insert(FingerprintVector(x), publish_epoch_,
                                    sim_.Now(), out);
}

void PeerRuntime::CountPrediction(const P2PPrediction& out) {
  if (net_.metrics() == nullptr) return;
  static const char* const kOutcome[] = {"ok", "degraded", "failed"};
  const std::size_t i = !out.success ? 2 : out.degraded ? 1 : 0;
  CounterFor(predictions_[i], "predictions", "outcome", kOutcome[i])
      .Increment();
}

bool PeerRuntime::Rejects(ModelRejectReason reason) {
  if (reason == ModelRejectReason::kNone) return false;
  ++models_rejected_;
  if (net_.metrics() != nullptr) {
    CounterFor(rejected_[static_cast<std::size_t>(reason)], "models_rejected",
               "reason", ModelRejectReasonToString(reason))
        .Increment();
  }
  return true;
}

void PeerRuntime::RecordDiscarded(uint64_t n) {
  votes_discarded_ += n;
  if (net_.metrics() == nullptr) return;
  CounterFor(discarded_, "votes_discarded").Increment(n);
}

DefenseStats PeerRuntime::defense_stats() const {
  DefenseStats stats;
  stats.models_rejected = models_rejected_;
  stats.votes_discarded = votes_discarded_;
  if (reputation_ != nullptr) {
    stats.quarantined = reputation_->num_quarantined();
    stats.trust_observations = reputation_->observations();
  }
  return stats;
}

void PeerRuntime::PutSnapshotHeader(TagId num_tags, std::size_t shape,
                                    std::string& out) {
  wire::PutU8(kSnapshotVersion, out);
  wire::PutU32(num_tags, out);
  wire::PutU32(static_cast<uint32_t>(shape), out);
}

Status PeerRuntime::GetSnapshotHeader(const std::string& blob,
                                      std::size_t& offset, TagId num_tags,
                                      std::size_t shape) const {
  Result<uint8_t> version = wire::GetU8(blob, offset);
  if (!version.ok()) return version.status();
  if (version.value() != kSnapshotVersion) {
    return Status::InvalidArgument(std::string("unsupported ") + classifier_ +
                                   " snapshot version " +
                                   std::to_string(version.value()));
  }
  Result<uint32_t> tags = wire::GetU32(blob, offset);
  if (!tags.ok()) return tags.status();
  Result<uint32_t> read_shape = wire::GetU32(blob, offset);
  if (!read_shape.ok()) return read_shape.status();
  if (tags.value() != num_tags || read_shape.value() != shape) {
    return Status::InvalidArgument(
        std::string(classifier_) +
        " snapshot was taken under a different configuration");
  }
  return Status::OK();
}

DefenseStats StatefulP2PClassifier::defense_stats() const {
  return runtime().defense_stats();
}

}  // namespace p2pdt
