#include "p2pml/baselines.h"

#include <algorithm>

#include "common/logging.h"
#include "p2pml/peer_runtime.h"

namespace p2pdt {

namespace {

BinaryTrainer MakeLinearTrainer(const LinearSvmOptions& options) {
  return [options](const std::vector<Example>& examples)
             -> Result<std::unique_ptr<BinaryClassifier>> {
    Result<LinearSvmModel> model = TrainLinearSvm(examples, options);
    if (!model.ok()) return model.status();
    return std::unique_ptr<BinaryClassifier>(
        std::make_unique<LinearSvmModel>(std::move(model).value()));
  };
}

std::size_t PredictionRequestBytes(const SparseVector& x) {
  return x.WireSize() + 16;
}

/// The baselines train on standalone datasets: copy each shard out.
std::vector<MultiLabelDataset> Materialize(
    const std::vector<DatasetShard>& shards) {
  std::vector<MultiLabelDataset> data;
  data.reserve(shards.size());
  for (const DatasetShard& shard : shards) data.push_back(shard.Materialize());
  return data;
}

}  // namespace

// ---------------------------------------------------------------------------
// CentralizedClassifier
// ---------------------------------------------------------------------------

Status CentralizedClassifier::SetupShards(std::vector<DatasetShard> peer_data,
                                          TagId num_tags) {
  P2PDT_RETURN_IF_ERROR(CheckOneShardPerNode(peer_data.size(), net_));
  if (kCoordinator >= peer_data.size()) {
    return Status::InvalidArgument("coordinator node does not exist");
  }
  peer_data_ = Materialize(peer_data);
  num_tags_ = num_tags;
  pooled_ = MultiLabelDataset(num_tags);
  trained_ = false;
  return Status::OK();
}

void CentralizedClassifier::Train(std::function<void(Status)> on_complete) {
  auto barrier = Barrier::Make([this, on_complete = std::move(on_complete)] {
    if (pooled_.empty()) {
      on_complete(Status::Unavailable("no training data reached the center"));
      return;
    }
    Result<OneVsAllModel> model =
        TrainOneVsAll(pooled_, MakeLinearTrainer(LinearSvmOptions{}));
    if (!model.ok()) {
      on_complete(model.status());
      return;
    }
    model_ = std::move(model).value();
    trained_ = true;
    on_complete(Status::OK());
  });

  for (NodeId peer = 0; peer < peer_data_.size(); ++peer) {
    if (!net_.IsOnline(peer) || peer_data_[peer].empty()) continue;
    if (peer == kCoordinator) {
      pooled_.Merge(peer_data_[peer]);
      continue;
    }
    barrier->Join();
    // The whole local corpus travels — this is the data-centralization
    // cost (and privacy exposure) the paper's motivation criticizes.
    net_.Send(
        peer, kCoordinator, peer_data_[peer].WireSize(),
        MessageType::kDataTransfer,
        [this, peer, barrier] {
          pooled_.Merge(peer_data_[peer]);
          barrier->Settle();
        },
        [barrier] { barrier->Settle(); });
  }
  barrier->Settle();
}

void CentralizedClassifier::Predict(NodeId requester, const SparseVector& x,
                                    std::function<void(P2PPrediction)> done) {
  if (!trained_ || requester >= peer_data_.size() ||
      !net_.IsOnline(requester)) {
    sim_.Schedule(0.0, [done = std::move(done)] { done({{}, {}, false}); });
    return;
  }
  auto shared_done =
      std::make_shared<std::function<void(P2PPrediction)>>(std::move(done));

  auto answer = [this, shared_done](const SparseVector& vec) {
    P2PPrediction out;
    out.scores = model_.Scores(vec);
    out.tags = DecideTags(out.scores, TagDecisionPolicy{});
    out.success = true;
    return out;
  };

  if (requester == kCoordinator) {
    sim_.Schedule(0.0, [answer, shared_done, x] {
      (*shared_done)(answer(x));
    });
    return;
  }
  net_.Send(
      requester, kCoordinator, PredictionRequestBytes(x),
      MessageType::kPredictionRequest,
      [this, requester, x, answer, shared_done] {
        P2PPrediction out = answer(x);
        net_.Send(
            kCoordinator, requester, 16 + 12 * out.scores.size(),
            MessageType::kPredictionResponse,
            [shared_done, out] { (*shared_done)(out); },
            [shared_done] { (*shared_done)({{}, {}, false}); });
      },
      [shared_done] { (*shared_done)({{}, {}, false}); });
}

// ---------------------------------------------------------------------------
// LocalOnlyClassifier
// ---------------------------------------------------------------------------

Status LocalOnlyClassifier::SetupShards(std::vector<DatasetShard> peer_data,
                                        TagId num_tags) {
  P2PDT_RETURN_IF_ERROR(CheckOneShardPerNode(peer_data.size(), net_));
  peer_data_ = Materialize(peer_data);
  num_tags_ = num_tags;
  models_.assign(peer_data_.size(), {});
  has_model_.assign(peer_data_.size(), false);
  trained_ = false;
  return Status::OK();
}

void LocalOnlyClassifier::Train(std::function<void(Status)> on_complete) {
  for (NodeId peer = 0; peer < peer_data_.size(); ++peer) {
    if (!net_.IsOnline(peer) || peer_data_[peer].empty()) continue;
    MultiLabelDataset padded = peer_data_[peer];
    padded.set_num_tags(num_tags_);
    LinearSvmOptions svm;
    svm.seed += peer;
    Result<OneVsAllModel> model =
        TrainOneVsAll(padded, MakeLinearTrainer(svm));
    if (!model.ok()) {
      P2PDT_LOG(Warning) << "local-only peer " << peer
                         << " training failed: " << model.status().ToString();
      continue;
    }
    models_[peer] = std::move(model).value();
    has_model_[peer] = true;
  }
  trained_ = true;
  sim_.Schedule(0.0, [on_complete = std::move(on_complete)] {
    on_complete(Status::OK());
  });
}

void LocalOnlyClassifier::Predict(NodeId requester, const SparseVector& x,
                                  std::function<void(P2PPrediction)> done) {
  bool ok = trained_ && requester < models_.size() &&
            net_.IsOnline(requester) && has_model_[requester];
  sim_.Schedule(0.0, [this, ok, requester, x, done = std::move(done)] {
    if (!ok) {
      done({{}, {}, false});
      return;
    }
    P2PPrediction out;
    out.scores = models_[requester].Scores(x);
    out.tags = DecideTags(out.scores, TagDecisionPolicy{});
    out.success = true;
    done(std::move(out));
  });
}

// ---------------------------------------------------------------------------
// ModelAveragingClassifier
// ---------------------------------------------------------------------------

Status ModelAveragingClassifier::SetupShards(
    std::vector<DatasetShard> peer_data, TagId num_tags) {
  P2PDT_RETURN_IF_ERROR(CheckOneShardPerNode(peer_data.size(), net_));
  peer_data_ = Materialize(peer_data);
  num_tags_ = num_tags;
  contributed_.assign(peer_data_.size(), {});
  contributor_valid_.assign(peer_data_.size(), false);
  received_.assign(peer_data_.size(), {});
  trained_ = false;
  return Status::OK();
}

void ModelAveragingClassifier::Train(std::function<void(Status)> on_complete) {
  // Local phase: per-tag linear models.
  for (NodeId peer = 0; peer < peer_data_.size(); ++peer) {
    if (!net_.IsOnline(peer) || peer_data_[peer].empty()) continue;
    const MultiLabelDataset& data = peer_data_[peer];
    std::vector<LinearSvmModel> per_tag(num_tags_);
    std::vector<std::size_t> counts = data.TagCounts();
    bool any = false;
    for (TagId t = 0; t < num_tags_; ++t) {
      if (t >= counts.size() || counts[t] == 0 || counts[t] == data.size()) {
        continue;  // degenerate; contributes nothing for this tag
      }
      LinearSvmOptions svm;
      svm.seed += peer * 131 + t;
      Result<LinearSvmModel> model =
          TrainLinearSvm(data.OneAgainstAll(t), svm);
      if (model.ok()) {
        per_tag[t] = std::move(model).value();
        any = true;
      }
    }
    if (!any) continue;
    contributed_[peer] = std::move(per_tag);
    contributor_valid_[peer] = true;
  }

  auto barrier = Barrier::Make([this, on_complete = std::move(on_complete)] {
    trained_ = true;
    on_complete(Status::OK());
  });

  for (NodeId peer = 0; peer < contributed_.size(); ++peer) {
    if (!contributor_valid_[peer]) continue;
    received_[peer].push_back(peer);
    std::size_t bytes = 0;
    for (const auto& m : contributed_[peer]) bytes += m.WireSize();
    barrier->Join();
    overlay_.Broadcast(
        peer, bytes, MessageType::kModelBroadcast,
        [this, peer](NodeId receiver) {
          if (receiver < received_.size()) {
            received_[receiver].push_back(peer);
          }
        },
        [barrier] { barrier->Settle(); });
  }
  barrier->Settle();
}

void ModelAveragingClassifier::Predict(
    NodeId requester, const SparseVector& x,
    std::function<void(P2PPrediction)> done) {
  if (!trained_ || requester >= received_.size() ||
      !net_.IsOnline(requester) || received_[requester].empty()) {
    sim_.Schedule(0.0, [done = std::move(done)] { done({{}, {}, false}); });
    return;
  }
  // Average the decision values of every received contributor per tag —
  // algebraically identical to deciding with the averaged weight vector,
  // without materializing it per peer.
  P2PPrediction out;
  out.scores.assign(num_tags_, 0.0);
  std::vector<std::size_t> counts(num_tags_, 0);
  for (NodeId contributor : received_[requester]) {
    const auto& per_tag = contributed_[contributor];
    for (TagId t = 0; t < num_tags_; ++t) {
      if (per_tag[t].weights().empty() && per_tag[t].bias() == 0.0) continue;
      out.scores[t] += per_tag[t].Decision(x);
      ++counts[t];
    }
  }
  for (TagId t = 0; t < num_tags_; ++t) {
    if (counts[t] > 0) out.scores[t] /= static_cast<double>(counts[t]);
  }
  out.tags = DecideTags(out.scores, TagDecisionPolicy{});
  out.success = true;
  sim_.Schedule(0.0, [done = std::move(done), out = std::move(out)] {
    done(std::move(out));
  });
}

}  // namespace p2pdt
