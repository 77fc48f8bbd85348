#include "p2pml/cempar.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/serialization.h"

namespace p2pdt {

namespace {

/// With reputation on, a response score deviating more than this from the
/// per-tag median (3+ votes) is discarded as an outlier — the trimmed vote
/// that stops under-the-radar spam the magnitude gate admits. Honest
/// regional models for one tag never disagree by anything close to this
/// (|decision| is bounded by C · #SV + |bias|), so the trim is inert in
/// clean runs.
constexpr double kVoteOutlierThreshold = 1.0e4;

/// How long the first request of a prediction batch waits for companions
/// (sim seconds), and the batch size that flushes it early.
constexpr double kBatchWindowSeconds = 0.02;
constexpr std::size_t kMaxBatch = 16;

/// Wire size of a prediction request: the document vector plus a small
/// header naming the homes being queried.
std::size_t RequestBytes(const SparseVector& x) { return x.WireSize() + 16; }

/// Wire size of a response carrying `n` per-tag scores.
std::size_t ResponseBytes(std::size_t n) { return 16 + 12 * n; }

/// What a kGarbageModel adversary uploads in place of its honest fit: a
/// handful of support vectors whose coordinates cycle NaN / inf / 1e30 at
/// seeded feature ids, under a NaN bias. Undefended cascades absorb the
/// poison (SMO still terminates: NaN comparisons drop the indices from the
/// working set); defended intakes reject it as non_finite.
KernelSvmModel GarbageKernelModel(const Kernel& kernel, Rng& rng) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<SupportVector> svs;
  for (int k = 0; k < 6; ++k) {
    SupportVector sv;
    double v = k % 3 == 0 ? kNan : k % 3 == 1 ? kInf : 1.0e30;
    sv.x = SparseVector::FromPairs(
        {{static_cast<uint32_t>(rng.NextU64(4096)), v}});
    sv.y = k % 2 == 0 ? 1.0 : -1.0;
    sv.alpha = 1.0;
    svs.push_back(std::move(sv));
  }
  return KernelSvmModel(kernel, std::move(svs), kNan);
}

}  // namespace

Cempar::Cempar(Simulator& sim, PhysicalNetwork& net, ChordOverlay& chord,
               CemparOptions options)
    : sim_(sim),
      net_(net),
      chord_(chord),
      options_(options),
      runtime_(sim, net, "cempar", options.reliable_transport,
               options.transport, options.serve, options.predict_cache,
               options.reputation) {
  if (options_.regions_per_tag == 0) options_.regions_per_tag = 1;
  ReliableTransport* transport = runtime_.transport();
  if (transport == nullptr) return;
  transport->SetSuspicionListener(
      [this](NodeId suspect) { OnSuspect(suspect); });
  if (runtime_.serve_queue() == nullptr) return;
  // Wire-level admission control: every fresh prediction request (or batch)
  // arriving at a super-peer is charged against its serving queue; rejects
  // travel back as typed overload NACKs.
  transport->SetAdmissionHook(
      [this](NodeId to, MessageType type) -> AdmissionVerdict {
        AdmissionVerdict v;
        if (type != MessageType::kPredictionRequest) return v;
        Admission a = runtime_.Admit(to);
        if (a.outcome != AdmitOutcome::kAccept) {
          v.accept = false;
          v.retry_after = a.retry_after;
          return v;
        }
        v.delay = a.delay;
        return v;
      });
}

uint64_t Cempar::HomeKey(std::size_t h) const {
  const uint64_t tag = h / options_.regions_per_tag;
  return chord_.HashToKey((tag << 20) | (h % options_.regions_per_tag));
}

Status Cempar::SetupShards(std::vector<DatasetShard> peer_data,
                           TagId num_tags) {
  P2PDT_RETURN_IF_ERROR(CheckOneShardPerNode(peer_data.size(), net_));
  peer_data_ = std::move(peer_data);
  num_tags_ = num_tags;
  homes_.assign(static_cast<std::size_t>(num_tags_) *
                    options_.regions_per_tag,
                Home{});
  local_models_.assign(peer_data_.size(), {});
  model_version_.assign(peer_data_.size(), 0);
  owner_cache_.assign(peer_data_.size(), {});
  trained_ = false;
  runtime_.Reset(peer_data_);
  return Status::OK();
}

void Cempar::PurgeContributor(NodeId observer, NodeId contributor) {
  for (Home& home : homes_) {
    if (home.owner != observer) continue;
    if (home.locals.erase(contributor) > 0) home.dirty = true;
    home.local_versions.erase(contributor);
  }
  runtime_.BumpPublishEpoch();
}

void Cempar::UploadModel(NodeId peer, std::size_t h, KernelSvmModel model,
                         uint32_t version, std::shared_ptr<Barrier> barrier) {
  // Records the sim-time from issue to settlement (lookup + upload +
  // retries), no matter which path below settles the barrier.
  std::function<void()> settled = [this, started = sim_.Now(), barrier,
                                   hist = runtime_.phase(Phase::kSvUpload)] {
    if (hist != nullptr) hist->Observe(sim_.Now() - started);
    barrier->Settle();
  };
  chord_.Lookup(peer, HomeKey(h),
                [this, peer, h, version, model = std::move(model),
                 settled](ChordOverlay::LookupResult res) {
    if (!res.success) {
      settled();
      return;
    }
    owner_cache_[peer][h] = res.owner;
    auto install = [this, h, peer, version, owner = res.owner, model] {
      Home& home = homes_[h];
      if (home.owner == kInvalidNode) home.owner = owner;
      // A model delivered to a node that is not the home's collection
      // point (possible under churn-induced lookup disagreement) is
      // simply unused — it was still paid for on the wire.
      if (home.owner != owner) return;
      // Super-peer intake gate: sanitation first (structural), then
      // reputation (behavioral). Honest models pass both untouched.
      if (options_.sanitize.enabled &&
          runtime_.Rejects(SanitizeKernelModel(model, options_.sanitize))) {
        return;
      }
      ReputationManager* reputation = runtime_.reputation();
      if (reputation != nullptr && owner != peer) {
        const TagId tag = static_cast<TagId>(h / options_.regions_per_tag);
        double score = reputation->ScoreBinary(owner, model, tag);
        if (reputation->Observe(owner, peer, score)) {
          // Transition into quarantine: drop what this contributor already
          // got merged before the evidence accumulated.
          PurgeContributor(owner, peer);
        }
        if (reputation->IsQuarantined(owner, peer)) {
          runtime_.Rejects(ModelRejectReason::kDistrusted);
          return;
        }
      }
      // Version-guarded intake: a stamped upload replaces the peer's
      // stored local iff it is strictly newer than the held one. Duplicate
      // deliveries (same version) and out-of-order stragglers (older
      // version landing after a refresh) leave the stored model untouched
      // — an old version can never clobber a fresh one. All initial
      // publishes carry version 0, reproducing the legacy first-write-wins
      // emplace exactly.
      auto existing = home.locals.find(peer);
      if (existing != home.locals.end()) {
        uint32_t held = 0;
        auto vit = home.local_versions.find(peer);
        if (vit != home.local_versions.end()) held = vit->second;
        if (version > held) {
          existing->second = model;  // old-version eviction at the home
          home.local_versions[peer] = version;
        }
      } else {
        home.locals.emplace(peer, model);
        if (version > 0) home.local_versions[peer] = version;
      }
      home.dirty = true;
    };
    // Reliably, the upload retries until ACKed or given up and settles on
    // either outcome, never on receiver-side delivery.
    runtime_.Deliver(peer, res.owner, model.WireSize() + 16,
                     MessageType::kModelUpload, std::move(install), settled);
  });
}

std::size_t Cempar::RefitLocals(NodeId peer, const char* why) {
  local_models_[peer].clear();
  const DatasetShard& data = peer_data_[peer];
  std::vector<std::size_t> counts = data.TagCounts();
  const std::size_t region = peer % options_.regions_per_tag;
  std::size_t fitted = 0;
  for (TagId tag = 0; tag < num_tags_; ++tag) {
    if (tag >= counts.size() || counts[tag] == 0) continue;
    Result<KernelSvmModel> model =
        TrainKernelSvm(data.OneAgainstAll(tag), options_.svm);
    if (!model.ok()) {
      P2PDT_LOG(Warning) << "peer " << peer << " tag " << tag << " " << why
                         << " SVM failed: " << model.status().ToString();
      continue;
    }
    local_models_[peer].emplace(HomeIndex(tag, region),
                                std::move(model).value());
    ++fitted;
  }
  return fitted;
}

void Cempar::Train(std::function<void(Status)> on_complete) {
  auto barrier = RecascadeAfter([this, on_complete = std::move(on_complete)] {
    trained_ = true;
    on_complete(Status::OK());
  });

  // Phase 1 — pure compute: fit one local SVM per (peer, tag) cell. The
  // grid fans out across the thread pool; each task reads immutable peer
  // data and writes only its own result slot. SMO itself is deterministic,
  // so phase 1 produces the same models at any thread count.
  struct GridCell {
    NodeId peer;
    TagId tag;
    std::size_t region;
  };
  std::vector<GridCell> grid;
  for (NodeId peer = 0; peer < peer_data_.size(); ++peer) {
    if (!net_.IsOnline(peer) || peer_data_[peer].empty()) continue;
    std::vector<std::size_t> counts = peer_data_[peer].TagCounts();
    const std::size_t region = peer % options_.regions_per_tag;
    for (TagId tag = 0; tag < num_tags_; ++tag) {
      if (tag >= counts.size() || counts[tag] == 0) continue;
      grid.push_back({peer, tag, region});
    }
  }
  // Adversary behaviors resolved on the driver thread before the fan-out so
  // workers never consult simulator state.
  const AdversaryDirectory* adversaries = net_.adversaries();
  std::vector<uint8_t> flip(grid.size(), 0);
  if (adversaries != nullptr) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      flip[i] = adversaries->BehaviorAt(grid[i].peer, sim_.Now()) ==
                AdversaryBehavior::kLabelFlip;
    }
  }
  // Resolved on the driver thread; workers record wall time per cell
  // lock-free (null when metrics are disabled).
  Histogram* train_hist = runtime_.phase(Phase::kLocalTrain);

  // Compute/commit phase. Each grid cell fits its SVM on a pool worker and
  // stages the protocol side as a commit; ComputeCommitPhase then runs the
  // commits on the driver thread in grid order — the order a serial loop
  // issues them in — so the simulated message schedule is the same at every
  // thread count. The fitted model is *moved* through the commit closure,
  // never copied.
  ComputeCommitPhase(grid.size(), [&](std::size_t i) -> UniqueFunction {
    const GridCell cell = grid[i];
    PhaseTimer timer(Phase::kLocalTrain, train_hist);
    std::vector<Example> train =
        peer_data_[cell.peer].OneAgainstAll(cell.tag);
    if (flip[i] != 0) {
      // Label-flip poisoning: the model is perfectly anti-correlated with
      // the truth, which is exactly what cross-validation scores near zero.
      for (Example& ex : train) ex.y = -ex.y;
    }
    Result<KernelSvmModel> model = TrainKernelSvm(train, options_.svm);
    return [this, cell, adversaries, barrier,
            model = std::move(model)]() mutable {
      if (!model.ok()) {
        P2PDT_LOG(Warning) << "peer " << cell.peer << " tag " << cell.tag
                           << " local SVM failed: "
                           << model.status().ToString();
        return;
      }
      KernelSvmModel upload = std::move(model).value();
      if (adversaries != nullptr) {
        switch (adversaries->BehaviorAt(cell.peer, sim_.Now())) {
          case AdversaryBehavior::kGarbageModel: {
            // Seeded per (peer, tag, region) from the injector's dedicated
            // corruption stream — serial and parallel runs corrupt
            // identically, and armed-but-idle plans never draw from it.
            Rng crng(DeriveSeed(adversaries->CorruptionSeed(cell.peer),
                                cell.tag, cell.region));
            upload = GarbageKernelModel(options_.svm.kernel, crng);
            break;
          }
          case AdversaryBehavior::kDimensionMismatch: {
            // Append a support vector at a feature id far beyond any
            // plausible lexicon.
            std::vector<SupportVector> svs = upload.support_vectors();
            SupportVector sv;
            sv.x = SparseVector::FromPairs({{1u << 30, 1.0}});
            sv.y = 1.0;
            sv.alpha = 1.0;
            svs.push_back(std::move(sv));
            upload = KernelSvmModel(upload.kernel(), std::move(svs),
                                    upload.bias());
            break;
          }
          default:
            break;
        }
      }
      // Adversaries keep their corrupted model locally too: repair rounds
      // re-upload the same poison (and get re-rejected at the gate).
      const std::size_t h = HomeIndex(cell.tag, cell.region);
      local_models_[cell.peer].emplace(h, upload);
      barrier->Join();
      UploadModel(cell.peer, h, std::move(upload), model_version_[cell.peer],
                  barrier);
    };
  });
  barrier->Settle();  // release the root token
}

std::shared_ptr<Barrier> Cempar::RecascadeAfter(std::function<void()> done) {
  return Barrier::Make([this, done = std::move(done)] {
    CascadeAll();
    ReplicateRegionals();
    done();
  });
}

void Cempar::CascadeAll() {
  // Regional models are about to change: every cached prediction computed
  // against the old cascade is stale.
  runtime_.BumpPublishEpoch();
  // The intake checks run here on the driver thread, as Train's adversary
  // lookups do, so the workers below only cascade.
  struct Job {
    std::size_t home;
    std::vector<const KernelSvmModel*> locals;
  };
  std::vector<Job> jobs;
  for (std::size_t h = 0; h < homes_.size(); ++h) {
    Home& home = homes_[h];
    if (home.locals.empty() || !home.dirty) continue;
    home.dirty = false;
    std::vector<const KernelSvmModel*> locals;
    locals.reserve(home.locals.size());
    for (const auto& [peer, model] : home.locals) {
      // Defense in depth at the merge: locals that slipped in before a
      // quarantine (or before sanitation was enabled) stay out of the
      // cascade. Both predicates are false for every honest model.
      if (options_.sanitize.enabled &&
          SanitizeKernelModel(model, options_.sanitize) !=
              ModelRejectReason::kNone) {
        continue;
      }
      if (runtime_.reputation() != nullptr && home.owner != kInvalidNode &&
          runtime_.reputation()->IsQuarantined(home.owner, peer)) {
        continue;
      }
      locals.push_back(&model);
    }
    if (locals.empty()) {
      // Every contributor was rejected: the home has no trustworthy model.
      home.has_regional = false;
      home.weight = 0.0;
      continue;
    }
    jobs.push_back({h, std::move(locals)});
  }
  // Resolving the histogram registers it, and the registry holds only
  // phases that ran.
  if (jobs.empty()) return;
  Histogram* hist = runtime_.phase(Phase::kCascadeMerge);

  // Compute/commit phase: the homes' cascades are independent, so each runs
  // on a pool worker, reading only its own home's locals. The commits
  // install the regional models on the driver thread in home order, so they
  // are the same at every thread count.
  ComputeCommitPhase(jobs.size(), [&](std::size_t i) -> UniqueFunction {
    const Job& job = jobs[i];
    PhaseTimer timer(Phase::kCascadeMerge, hist);
    Result<KernelSvmModel> regional =
        CascadeTree(job.locals, options_.svm, options_.cascade_fan_in);
    return [this, h = job.home, merged = job.locals.size(),
            regional = std::move(regional)]() mutable {
      if (!regional.ok()) {
        P2PDT_LOG(Warning) << "cascade failed: "
                           << regional.status().ToString();
        return;
      }
      Home& home = homes_[h];
      home.regional = std::move(regional).value();
      home.has_regional = true;
      // Vote weight counts only the models that actually entered the merge.
      home.weight = static_cast<double>(merged);
    };
  });
}

void Cempar::EvaluateHomes(NodeId owner,
                           const std::vector<std::size_t>& home_list,
                           const SparseVector& x,
                           std::vector<PredictVote>& votes,
                           const TraceContext* trace) {
  // A vote-spam super-peer answers every queried tag with a huge
  // constant score under an inflated weight — the classic
  // drown-the-honest-votes attack the requester-side gate exists for.
  const AdversaryDirectory* adv = net_.adversaries();
  const bool spam = adv != nullptr && adv->BehaviorAt(owner, sim_.Now()) ==
                                          AdversaryBehavior::kVoteSpam;
  for (std::size_t h : home_list) {
    const Home& home = homes_[h];
    if (home.owner != owner || !home.has_regional) continue;
    TagId tag = static_cast<TagId>(h / options_.regions_per_tag);
    if (spam) {
      votes.push_back({tag, 1.0e9, 1.0e3});
    } else {
      votes.push_back({tag, home.regional.Decision(x), home.weight});
    }
  }
  if (Tracer* tracer = net_.tracer()) {
    // Runs inside the request message's delivery, so the marker lands in
    // the prediction's trace at the super-peer.
    tracer->Instant("super_peer_vote", sim_.Now(), owner,
                    trace != nullptr ? *trace : tracer->current());
  }
}

void Cempar::EnqueueBatch(NodeId requester, NodeId owner, BatchMember member) {
  const auto key = std::make_pair(requester, owner);
  PendingBatch& batch = batches_[key];
  batch.members.push_back(std::move(member));
  if (batch.members.size() == 1) {
    batch.generation = ++batch_generation_;
    const uint64_t gen = batch.generation;
    // First member opens the window; companions queued before it closes
    // ride the same round-trip.
    sim_.Schedule(kBatchWindowSeconds, [this, key, gen] {
      auto it = batches_.find(key);
      if (it == batches_.end() || it->second.generation != gen) return;
      FlushBatch(key.first, key.second);
    });
  } else if (batch.members.size() >= kMaxBatch) {
    FlushBatch(requester, owner);
  }
}

void Cempar::FlushBatch(NodeId requester, NodeId owner) {
  auto it = batches_.find(std::make_pair(requester, owner));
  if (it == batches_.end()) return;
  auto members =
      std::make_shared<std::vector<BatchMember>>(std::move(it->second.members));
  batches_.erase(it);
  std::size_t request_bytes = 0;
  for (const BatchMember& m : *members) request_bytes += RequestBytes(m.x);
  if (MetricsRegistry* metrics = net_.metrics()) {
    static const std::vector<double> kBatchBounds = {1,  2,  3,  4,  6,
                                                     8,  12, 16, 24, 32};
    metrics->GetHistogram("batch_size", {{"classifier", "cempar"}},
                          kBatchBounds)
        .Observe(static_cast<double>(members->size()));
  }
  // One coalesced round-trip: the batch pays a single admission charge and
  // a single ACK exchange for every member.
  ReliableTransport* transport = runtime_.transport();
  auto fail_all = [members] {
    for (const BatchMember& m : *members) m.fail();
  };
  transport->SendReliable(
      requester, owner, request_bytes, MessageType::kPredictionRequest,
      /*on_deliver=*/
      [this, transport, owner, requester, members, fail_all] {
        auto all =
            std::make_shared<std::vector<std::vector<PredictVote>>>();
        std::size_t response_bytes = 0;
        all->reserve(members->size());
        for (const BatchMember& m : *members) {
          all->emplace_back();
          EvaluateHomes(owner, m.home_list, m.x, all->back());
          response_bytes += ResponseBytes(all->back().size());
        }
        transport->SendReliable(
            owner, requester, response_bytes, MessageType::kPredictionResponse,
            /*on_deliver=*/
            [members, all] {
              for (std::size_t i = 0; i < members->size(); ++i) {
                (*members)[i].deliver((*all)[i]);
              }
            },
            /*on_acked=*/nullptr, /*on_give_up=*/fail_all);
      },
      /*on_acked=*/nullptr, /*on_give_up=*/fail_all);
}

void Cempar::AggregateVotes(const std::vector<PredictVote>& votes,
                            std::vector<double>& scores) {
  // Requester-side robust voting. Two layers, both inert on honest
  // traffic: (1) the sanitation gate drops non-finite or absurdly large
  // scores (the vote-spam signature), (2) with reputation on, a per-tag
  // median trim drops outliers that stayed under the magnitude bound.
  std::vector<char> keep(votes.size(), 1);
  uint64_t discarded = 0;
  if (options_.sanitize.enabled) {
    for (std::size_t i = 0; i < votes.size(); ++i) {
      const PredictVote& v = votes[i];
      if (!std::isfinite(v.score) || !std::isfinite(v.weight) ||
          std::fabs(v.score) > kSanitizeMaxAbsValue || v.weight < 0.0 ||
          v.weight > kSanitizeMaxAbsValue) {
        keep[i] = 0;
        ++discarded;
      }
    }
  }
  if (runtime_.reputation() != nullptr && !votes.empty()) {
    std::vector<std::vector<double>> per_tag(num_tags_);
    for (std::size_t i = 0; i < votes.size(); ++i) {
      if (keep[i] != 0 && votes[i].tag < num_tags_) {
        per_tag[votes[i].tag].push_back(votes[i].score);
      }
    }
    std::vector<double> median(num_tags_, 0.0);
    std::vector<char> trimmable(num_tags_, 0);
    for (TagId t = 0; t < num_tags_; ++t) {
      if (per_tag[t].size() < 3) continue;  // no majority to trim against
      std::sort(per_tag[t].begin(), per_tag[t].end());
      median[t] = per_tag[t][per_tag[t].size() / 2];
      trimmable[t] = 1;
    }
    for (std::size_t i = 0; i < votes.size(); ++i) {
      const PredictVote& v = votes[i];
      if (keep[i] == 0 || v.tag >= num_tags_ || trimmable[v.tag] == 0) {
        continue;
      }
      if (std::fabs(v.score - median[v.tag]) > kVoteOutlierThreshold) {
        keep[i] = 0;
        ++discarded;
      }
    }
  }
  if (discarded > 0) runtime_.RecordDiscarded(discarded);
  // Surviving votes are summed in arrival order.
  std::vector<double> weight_sum(num_tags_, 0.0);
  std::vector<double> score_sum(num_tags_, 0.0);
  for (std::size_t i = 0; i < votes.size(); ++i) {
    const PredictVote& v = votes[i];
    if (keep[i] == 0 || v.tag >= num_tags_) continue;
    score_sum[v.tag] += v.weight * v.score;
    weight_sum[v.tag] += v.weight;
  }
  for (TagId t = 0; t < num_tags_; ++t) {
    if (weight_sum[t] > 0.0) scores[t] = score_sum[t] / weight_sum[t];
  }
}

void Cempar::Predict(NodeId requester, const SparseVector& x,
                     std::function<void(P2PPrediction)> done) {
  // Requester-side versioned cache: a hit answers instantly with zero
  // network traffic and zero super-peer load — how a flash crowd on a hot
  // document set is absorbed before it reaches the serving queues.
  const bool ready = trained_ && requester < peer_data_.size();
  if (runtime_.AnswerEarly(ready, requester, x, done)) return;

  struct PredictCtx {
    /// Every vote in arrival order. Aggregation happens at finalize so the
    /// requester can gate and trim; surviving votes are summed in exactly
    /// this order, which keeps clean runs bit-identical to the old
    /// accumulate-on-arrival code.
    std::vector<PredictVote> votes;
    std::size_t remaining = 0;
    std::size_t responded = 0;
    /// Request groups shed by admission control (fire-and-forget or local
    /// path; the reliable path surfaces sheds as overload give-ups).
    std::size_t shed = 0;
    std::function<void(P2PPrediction)> done;
    /// End-to-end prediction span; lookups, requests and responses all
    /// nest under it (or under its descendants).
    TraceContext span;
    SimTime started = 0.0;
  };
  auto ctx = std::make_shared<PredictCtx>();
  ctx->done = std::move(done);
  ctx->started = sim_.Now();
  if (Tracer* tracer = net_.tracer()) {
    ctx->span = tracer->StartAuto("cempar/predict", sim_.Now(), requester);
    tracer->AddArg(ctx->span, "requester", std::to_string(requester));
  }

  auto finalize_one = [this, ctx, requester, x] {
    if (--ctx->remaining > 0) return;
    P2PPrediction out;
    out.scores.assign(num_tags_, 0.0);
    {
      PhaseTimer timer = runtime_.Time(Phase::kVote);
      AggregateVotes(ctx->votes, out.scores);
      out.success = ctx->responded > 0;
      if (!out.success && runtime_.transport() != nullptr &&
          LocalScores(requester, x, out.scores)) {
        // Every remote path exhausted its retry budget: degrade to the
        // requester's own local models rather than failing outright.
        out.success = true;
        out.degraded = true;
      }
      out.tags = out.success ? DecideTags(out.scores, options_.policy)
                             : std::vector<TagId>{};
    }
    if (Histogram* hist = runtime_.phase(Phase::kPredict)) {
      hist->Observe(sim_.Now() - ctx->started);
    }
    runtime_.CountPrediction(out);
    if (Tracer* tracer = net_.tracer()) {
      tracer->AddArg(ctx->span, "responded", std::to_string(ctx->responded));
      tracer->AddArg(ctx->span, "success", out.success ? "true" : "false");
      if (out.degraded) tracer->AddArg(ctx->span, "degraded", "true");
      tracer->EndSpan(ctx->span, sim_.Now());
    }
    // The typed overload reject: nothing answered and at least one group
    // was shed — the caller may retry with backoff rather than treat this
    // as a reachability failure.
    if (!out.success && ctx->shed > 0) out.overloaded = true;
    runtime_.CacheAnswer(requester, x, out);
    ctx->done(std::move(out));
  };

  // Resolve the owner of every home (from cache when known), then group
  // homes by owner so the document vector travels once per super-peer.
  auto dispatch = [this, ctx, requester, x, finalize_one](
                      const std::vector<std::pair<std::size_t, NodeId>>&
                          resolved) {
    // Group home indexes by owner.
    std::map<NodeId, std::vector<std::size_t>> groups;
    for (const auto& [h, owner] : resolved) {
      if (owner == kInvalidNode) continue;
      groups[owner].push_back(h);
    }
    if (groups.empty()) {
      ++ctx->remaining;
      sim_.Schedule(0.0, finalize_one);
      return;
    }
    ctx->remaining = groups.size();
    ReliableTransport* transport = runtime_.transport();
    for (const auto& [owner, home_list] : groups) {
      if (owner == requester) {
        // Local super-peer: evaluate without network traffic — but the
        // evaluation itself still occupies the serving queue.
        double local_delay = 0.0;
        if (runtime_.serve_queue() != nullptr) {
          Admission a = runtime_.Admit(owner);
          if (a.outcome != AdmitOutcome::kAccept) {
            ++ctx->shed;
            sim_.Schedule(0.0, finalize_one);
            continue;
          }
          local_delay = a.delay;
        }
        // (A vote-spam requester poisons its own request too — the
        // behavior belongs to the responding super-peer, whoever that is.)
        sim_.Schedule(local_delay,
                      [this, ctx, owner, home_list, x, finalize_one] {
          EvaluateHomes(owner, home_list, x, ctx->votes, &ctx->span);
          ++ctx->responded;
          finalize_one();
        });
        continue;
      }
      // Super-peer evaluates all queried homes it actually hosts.
      auto evaluate = [this, owner, home_list, x] {
        auto partials = std::make_shared<std::vector<PredictVote>>();
        EvaluateHomes(owner, home_list, x, *partials);
        return partials;
      };
      auto accumulate = [ctx](const std::vector<PredictVote>& partials) {
        for (const auto& p : partials) ctx->votes.push_back(p);
        ++ctx->responded;
      };
      auto invalidate = [this, requester, home_list] {
        // Request lost: invalidate cached owners so the next prediction
        // re-resolves through the DHT.
        for (std::size_t h : home_list) owner_cache_[requester].erase(h);
      };
      if (transport != nullptr) {
        // Reliable paths. A group can settle through several routes
        // (response delivered, response given up at the responder, request
        // given up after the data still slipped through) — the flag makes
        // the group's finalize idempotent.
        auto settle = [finalize_one,
                       flag = std::make_shared<bool>(false)]() mutable {
          if (*flag) return;
          *flag = true;
          finalize_one();
        };
        auto fail = [invalidate, settle]() mutable {
          invalidate();
          settle();
        };
        if (options_.batch_predictions) {
          // Batched: park this group in the (requester, owner) batch; the
          // flush sends one coalesced round-trip for every member.
          BatchMember m;
          m.x = x;
          m.home_list = home_list;
          m.deliver = [accumulate, settle](
                          const std::vector<PredictVote>& partials) mutable {
            accumulate(partials);
            settle();
          };
          m.fail = fail;
          EnqueueBatch(requester, owner, std::move(m));
          continue;
        }
        transport->SendReliable(
            requester, owner, RequestBytes(x), MessageType::kPredictionRequest,
            /*on_deliver=*/
            [transport, owner, requester, evaluate, accumulate, settle] {
              auto partials = evaluate();
              transport->SendReliable(
                  owner, requester, ResponseBytes(partials->size()),
                  MessageType::kPredictionResponse,
                  /*on_deliver=*/
                  [accumulate, partials, settle]() mutable {
                    accumulate(*partials);
                    settle();
                  },
                  /*on_acked=*/nullptr,
                  /*on_give_up=*/settle);
            },
            /*on_acked=*/nullptr, /*on_give_up=*/fail);
        continue;
      }
      net_.Send(
          requester, owner, RequestBytes(x), MessageType::kPredictionRequest,
          [this, ctx, owner, requester, evaluate, accumulate, finalize_one] {
            // Fire-and-forget admission: a shed request simply never gets
            // a response (the sender cannot be NACKed without a reliable
            // channel), so the requester's group finalizes empty.
            double serve_delay = 0.0;
            if (runtime_.serve_queue() != nullptr) {
              Admission a = runtime_.Admit(owner);
              if (a.outcome != AdmitOutcome::kAccept) {
                net_.stats().RecordDrop(MessageType::kPredictionRequest,
                                        DropReason::kOverloadShed);
                ++ctx->shed;
                finalize_one();
                return;
              }
              serve_delay = a.delay;
            }
            auto respond = [this, owner, requester, evaluate, accumulate,
                            finalize_one] {
              auto partials = evaluate();
              net_.Send(
                  owner, requester, ResponseBytes(partials->size()),
                  MessageType::kPredictionResponse,
                  [accumulate, partials, finalize_one] {
                    accumulate(*partials);
                    finalize_one();
                  },
                  finalize_one);
            };
            if (serve_delay > 0.0) {
              sim_.Schedule(serve_delay, respond);
            } else {
              respond();
            }
          },
          [invalidate, finalize_one] {
            invalidate();
            finalize_one();
          });
    }
  };

  // Resolution phase — issued under the prediction span, so every DHT
  // lookup (and the request/response traffic its continuation sends) stays
  // in the prediction's trace.
  ScopedTraceContext predict_scope(net_.tracer(), ctx->span);
  // (home, owner) pairs in resolution order.
  auto resolved =
      std::make_shared<std::vector<std::pair<std::size_t, NodeId>>>();
  auto lookups =
      Barrier::Make([resolved, dispatch] { dispatch(*resolved); });
  for (std::size_t h = 0; h < homes_.size(); ++h) {
    auto& cache = owner_cache_[requester];
    auto it = cache.find(h);
    if (it != cache.end()) {
      resolved->emplace_back(h, it->second);
      continue;
    }
    lookups->Join();
    chord_.Lookup(requester, HomeKey(h),
                  [this, requester, h, resolved, lookups](
                      ChordOverlay::LookupResult lr) {
      if (lr.success) {
        resolved->emplace_back(h, lr.owner);
        owner_cache_[requester][h] = lr.owner;
      }
      lookups->Settle();
    });
  }
  lookups->Settle();  // release the root token
}

void Cempar::RepairRound(std::function<void()> on_complete) {
  // Detect dead homes: collection point offline (or never established).
  std::vector<bool> stale(homes_.size(), false);
  for (std::size_t h = 0; h < homes_.size(); ++h) {
    Home& home = homes_[h];
    // A live standby holds the replica: promote it instead of discarding
    // the cascade and forcing a full re-upload.
    if (home.owner != kInvalidNode && net_.IsOnline(home.owner)) continue;
    if (PromoteStandby(home)) continue;
    stale[h] = true;
    home = Home{};  // models held at the dead node are gone
  }

  auto barrier = RecascadeAfter(std::move(on_complete));

  for (NodeId peer = 0; peer < local_models_.size(); ++peer) {
    if (!net_.IsOnline(peer)) continue;
    for (const auto& [h, model] : local_models_[peer]) {
      if (!stale[h]) continue;
      owner_cache_[peer].erase(h);
      barrier->Join();
      UploadModel(peer, h, model, model_version_[peer], barrier);
    }
  }
  barrier->Settle();
}

std::size_t Cempar::NumLiveHomes() const {
  std::size_t live = 0;
  for (const Home& home : homes_) {
    if (home.has_regional && home.owner != kInvalidNode &&
        net_.IsOnline(home.owner)) {
      ++live;
    }
  }
  return live;
}

std::vector<NodeId> Cempar::HomeOwners() const {
  std::vector<NodeId> owners;
  owners.reserve(homes_.size());
  for (const Home& home : homes_) owners.push_back(home.owner);
  return owners;
}

std::size_t Cempar::TotalRegionalSupportVectors() const {
  std::size_t total = 0;
  for (const Home& home : homes_) {
    if (home.has_regional) total += home.regional.num_support_vectors();
  }
  return total;
}

std::size_t Cempar::NumReplicatedHomes() const {
  std::size_t count = 0;
  for (const Home& home : homes_) {
    if (home.standby_ready) ++count;
  }
  return count;
}

void Cempar::ReplicateHome(std::size_t h) {
  Home& home = homes_[h];
  if (!home.has_regional || home.owner == kInvalidNode) return;
  // Standby = the owner's first live successor on the ring — the node that
  // would inherit the home's key range if the owner vanished.
  NodeId standby = kInvalidNode;
  for (NodeId succ : chord_.SuccessorsOf(home.owner)) {
    if (succ != home.owner && net_.IsOnline(succ)) {
      standby = succ;
      break;
    }
  }
  if (standby == kInvalidNode) return;
  if (home.standby == standby && home.standby_ready) return;
  home.standby = standby;
  home.standby_ready = false;
  // The replica snapshot only becomes usable once it is *delivered*;
  // promotion checks standby_ready.
  runtime_.Deliver(home.owner, standby, home.regional.WireSize() + 16,
                   MessageType::kModelReplicate, [this, h, standby] {
                     if (homes_[h].standby == standby) {
                       homes_[h].standby_ready = true;
                     }
                   });
}

void Cempar::ReplicateRegionals() {
  if (runtime_.transport() == nullptr) return;
  for (std::size_t h = 0; h < homes_.size(); ++h) ReplicateHome(h);
}

void Cempar::OnSuspect(NodeId suspect) {
  // Cached resolutions pointing at the suspect are poison: drop them so
  // the next prediction re-resolves through the DHT.
  for (auto& cache : owner_cache_) {
    for (auto it = cache.begin(); it != cache.end();) {
      it = it->second == suspect ? cache.erase(it) : std::next(it);
    }
  }
  for (std::size_t h = 0; h < homes_.size(); ++h) {
    // Without a usable replica, RepairRound can rebuild the home later.
    if (homes_[h].owner != suspect || !PromoteStandby(homes_[h])) continue;
    // Restore the replication invariant under the new primary.
    ReplicateHome(h);
  }
}

bool Cempar::PromoteStandby(Home& home) {
  if (!home.standby_ready || home.standby == kInvalidNode ||
      !net_.IsOnline(home.standby)) {
    return false;
  }
  home.owner = home.standby;
  home.standby = kInvalidNode;
  home.standby_ready = false;
  return true;
}

Result<std::string> Cempar::Snapshot(NodeId peer) const {
  if (peer >= local_models_.size()) return UnknownPeer("snapshot", peer);
  std::string out;
  PeerRuntime::PutSnapshotHeader(num_tags_, options_.regions_per_tag, out);
  wire::PutU32(static_cast<uint32_t>(local_models_[peer].size()), out);
  for (const auto& [home, model] : local_models_[peer]) {
    wire::PutU64(home, out);
    wire::PutBytes(SerializeKernelSvm(model), out);
  }
  return out;
}

Status Cempar::Restore(NodeId peer, const std::string& blob) {
  if (peer >= local_models_.size()) return UnknownPeer("restore", peer);
  std::size_t offset = 0;
  P2PDT_RETURN_IF_ERROR(runtime_.GetSnapshotHeader(
      blob, offset, num_tags_, options_.regions_per_tag));
  Result<uint32_t> count = wire::GetU32(blob, offset);
  if (!count.ok()) return count.status();
  // Every entry needs at least a home id (8) and a length prefix (4); a
  // count that cannot fit in the remaining bytes is a corrupted or hostile
  // length field — reject before looping, not after allocating.
  if (count.value() > (blob.size() - offset) / 12) {
    return Status::DataLoss("cempar snapshot model count exceeds buffer");
  }
  std::map<std::size_t, KernelSvmModel> restored;
  for (uint32_t i = 0; i < count.value(); ++i) {
    Result<uint64_t> home = wire::GetU64(blob, offset);
    if (!home.ok()) return home.status();
    if (home.value() >= homes_.size()) {
      return Status::InvalidArgument("cempar snapshot references home " +
                                     std::to_string(home.value()) +
                                     " out of " +
                                     std::to_string(homes_.size()));
    }
    Result<std::string> bytes = wire::GetBytes(blob, offset);
    if (!bytes.ok()) return bytes.status();
    Result<KernelSvmModel> model = DeserializeKernelSvm(bytes.value());
    if (!model.ok()) return model.status();
    // A checkpoint is an ingestion point like any other: a tampered blob
    // that parses cleanly must still pass content sanitation.
    const ModelRejectReason reason =
        options_.sanitize.enabled
            ? SanitizeKernelModel(model.value(), options_.sanitize)
            : ModelRejectReason::kNone;
    if (runtime_.Rejects(reason)) return RejectedModelStatus(reason);
    restored.emplace(static_cast<std::size_t>(home.value()),
                     std::move(model).value());
  }
  if (offset != blob.size()) {
    return Status::InvalidArgument("trailing bytes after cempar snapshot");
  }
  // Commit only after the whole blob parsed: restore is all-or-nothing.
  local_models_[peer] = std::move(restored);
  // The owner cache is RAM, not checkpoint: a restored peer starts with an
  // empty one, exactly like a cold restart (EvictPeer). Without this, a
  // warm rejoin kept the owners that lookups in flight across the crash
  // resolved while the peer was down.
  owner_cache_[peer].clear();
  runtime_.BumpPublishEpoch();
  return Status::OK();
}

void Cempar::EvictPeer(NodeId peer) {
  if (peer >= local_models_.size()) return;
  local_models_[peer].clear();
  owner_cache_[peer].clear();
  runtime_.BumpPublishEpoch();
}

std::size_t Cempar::ColdRestart(NodeId peer) {
  if (peer >= peer_data_.size()) return 0;
  EvictPeer(peer);
  // Same trainer, same data, same options as the original fit: SMO is
  // deterministic, so the recovered models are bit-identical and only the
  // work is different from a warm restore.
  return RefitLocals(peer, "cold-restart") * peer_data_[peer].size();
}

void Cempar::ResyncPeer(NodeId peer, std::function<void()> done) {
  (void)peer;  // RepairRound already sweeps every stale home network-wide.
  RepairRound(std::move(done));
}

Status Cempar::ReplacePeerData(NodeId peer, DatasetShard window) {
  if (peer >= peer_data_.size()) return UnknownPeer("replace data", peer);
  window.set_num_tags(num_tags_);
  peer_data_[peer] = std::move(window);
  // Trust scoring cross-validates against the peer's current window, so
  // refreshed contributors are judged on the data regime they now model.
  if (ReputationManager* reputation = runtime_.reputation()) {
    reputation->SetHoldout(peer, peer_data_[peer]);
  }
  return Status::OK();
}

void Cempar::RefreshPeer(NodeId peer, std::function<void()> done) {
  if (peer >= peer_data_.size() || !net_.IsOnline(peer) ||
      peer_data_[peer].empty()) {
    sim_.Schedule(0.0, std::move(done));
    return;
  }
  // One publish version for the whole refreshed grid: every per-tag local
  // re-uploaded below carries it, so a home can tell this refresh from the
  // superseded fit no matter which copies (or retransmissions) arrive when.
  const uint32_t version = ++model_version_[peer];
  // The version bump invalidates cached predictions immediately, before
  // any re-upload lands (the coherence rule: never serve across a bump).
  runtime_.BumpPublishEpoch();
  {
    PhaseTimer timer = runtime_.Time(Phase::kModelRefresh);
    RefitLocals(peer, "refresh");
  }

  // Re-upload through the normal (possibly reliable) upload path; each
  // home's version-guarded intake evicts the stored old-version local and
  // re-cascades once the traffic quiesces — same barrier shape as Train.
  auto barrier = RecascadeAfter(std::move(done));
  for (const auto& [h, model] : local_models_[peer]) {
    barrier->Join();
    UploadModel(peer, h, model, version, barrier);
  }
  sim_.Schedule(0.0, [barrier] { barrier->Settle(); });  // root token
}

uint64_t Cempar::ModelVersion(NodeId peer) const {
  return peer < model_version_.size() ? model_version_[peer] : 0;
}

bool Cempar::LocalScores(NodeId peer, const SparseVector& x,
                         std::vector<double>& scores) const {
  if (peer >= local_models_.size() || local_models_[peer].empty()) {
    return false;
  }
  scores.assign(num_tags_, 0.0);
  std::vector<double> weight(num_tags_, 0.0);
  for (const auto& [h, model] : local_models_[peer]) {
    TagId tag = static_cast<TagId>(h / options_.regions_per_tag);
    scores[tag] += model.Decision(x);
    weight[tag] += 1.0;
  }
  for (TagId t = 0; t < num_tags_; ++t) {
    if (weight[t] > 0.0) scores[t] /= weight[t];
  }
  return true;
}

}  // namespace p2pdt

