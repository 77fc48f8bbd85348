#ifndef P2PDT_P2PML_BASELINES_H_
#define P2PDT_P2PML_BASELINES_H_

#include <memory>
#include <vector>

#include "ml/linear_svm.h"
#include "ml/multilabel.h"
#include "p2pml/p2p_classifier.h"
#include "p2psim/overlay.h"
#include "p2psim/simulator.h"

namespace p2pdt {

/// The centralized strawman the paper argues against: every peer ships its
/// raw training documents to one coordinator, which trains a single global
/// model and answers every prediction request. Its accuracy is the upper
/// bound CEMPaR/PACE are compared to; its costs are (a) raw data on the
/// wire — the privacy problem — and (b) a single point of failure: when
/// the coordinator is offline, every prediction fails.
///
/// The three baselines train default LinearSvmOptions per tag and decide
/// tags with the default TagDecisionPolicy.
class CentralizedClassifier final : public P2PClassifier {
 public:
  /// Underlay node acting as the central server.
  static constexpr NodeId kCoordinator = 0;

  CentralizedClassifier(Simulator& sim, PhysicalNetwork& net)
      : sim_(sim), net_(net) {}

  Status SetupShards(std::vector<DatasetShard> peer_data,
                     TagId num_tags) override;
  void Train(std::function<void(Status)> on_complete) override;
  void Predict(NodeId requester, const SparseVector& x,
               std::function<void(P2PPrediction)> done) override;
  std::string name() const override { return "centralized"; }

 private:
  Simulator& sim_;
  PhysicalNetwork& net_;
  std::vector<MultiLabelDataset> peer_data_;
  TagId num_tags_ = 0;
  MultiLabelDataset pooled_;
  OneVsAllModel model_;
  bool trained_ = false;
};

/// The no-collaboration strawman: each peer trains only on its own few
/// documents and never talks to anyone. Zero communication, but accuracy
/// collapses on tags the peer has never seen — the gap to CEMPaR/PACE is
/// the value of collaboration, the paper's central claim.
class LocalOnlyClassifier final : public P2PClassifier {
 public:
  LocalOnlyClassifier(Simulator& sim, PhysicalNetwork& net)
      : sim_(sim), net_(net) {}

  Status SetupShards(std::vector<DatasetShard> peer_data,
                     TagId num_tags) override;
  void Train(std::function<void(Status)> on_complete) override;
  void Predict(NodeId requester, const SparseVector& x,
               std::function<void(P2PPrediction)> done) override;
  std::string name() const override { return "local_only"; }

 private:
  Simulator& sim_;
  PhysicalNetwork& net_;
  std::vector<MultiLabelDataset> peer_data_;
  TagId num_tags_ = 0;
  std::vector<OneVsAllModel> models_;
  std::vector<bool> has_model_;
  bool trained_ = false;
};

/// A simple distributed baseline between LocalOnly and PACE: peers
/// broadcast their linear models and every receiver keeps the running
/// *average* weight vector per tag (no centroids, no locality weighting).
/// Ablates PACE's adaptive ensemble: the delta PACE−ModelAvg is what the
/// accuracy/distance weighting buys.
class ModelAveragingClassifier final : public P2PClassifier {
 public:
  ModelAveragingClassifier(Simulator& sim, PhysicalNetwork& net,
                           Overlay& overlay)
      : sim_(sim), net_(net), overlay_(overlay) {}

  Status SetupShards(std::vector<DatasetShard> peer_data,
                     TagId num_tags) override;
  void Train(std::function<void(Status)> on_complete) override;
  void Predict(NodeId requester, const SparseVector& x,
               std::function<void(P2PPrediction)> done) override;
  std::string name() const override { return "model_avg"; }

 private:
  Simulator& sim_;
  PhysicalNetwork& net_;
  Overlay& overlay_;
  std::vector<MultiLabelDataset> peer_data_;
  TagId num_tags_ = 0;
  /// Per-contributor linear models (shared storage; receipt is tracked).
  std::vector<std::vector<LinearSvmModel>> contributed_;
  std::vector<bool> contributor_valid_;
  /// received_[q] lists contributors whose models reached peer q.
  std::vector<std::vector<NodeId>> received_;
  bool trained_ = false;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PML_BASELINES_H_
