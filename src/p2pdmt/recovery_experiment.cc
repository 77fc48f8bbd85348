#include "p2pdmt/recovery_experiment.h"

#include <cstring>
#include <memory>
#include <numeric>
#include <utility>

namespace p2pdt {

namespace {

/// Everything one pass of the crash-restore experiment produces.
struct PassOutput {
  std::vector<P2PPrediction> predictions;
  std::size_t crashed = 0;
  std::size_t restored = 0;
  std::size_t resnapshot_mismatches = 0;
  uint64_t checkpoint_bytes = 0;
};

/// Runs split → train → (optional crash/checkpoint-restore) → predict with
/// fully deterministic seeding, so two passes differing only in the crash
/// step are comparable prediction-by-prediction.
Result<PassOutput> RunPass(const VectorizedCorpus& corpus,
                           const ExperimentOptions& options,
                           std::size_t num_crashed_peers) {
  PassOutput out;
  CorpusSplit split = SplitCorpus(corpus, kTrainFraction, options.seed);
  Result<std::vector<DatasetShard>> peers = DistributeDataShared(
      std::make_shared<const MultiLabelDataset>(split.train),
      options.env.num_peers, options.distribution, &split.train_user);
  if (!peers.ok()) return peers.status();
  Result<SimulatedClassifier> sim = SetupClassifier(
      options, std::move(peers).value(), corpus.dataset.num_tags());
  if (!sim.ok()) return sim.status();
  Environment& env = *sim->env;
  P2PClassifier& algo = *sim->algo;
  P2PDT_RETURN_IF_ERROR(
      TrainToQuiescence(env, algo, kMaxTrainSimSeconds).status());

  if (num_crashed_peers > 0) {
    StatefulP2PClassifier* stateful = sim->stateful;
    if (stateful == nullptr) {
      return Status::FailedPrecondition(algo.name() +
                                        " does not support durable state");
    }
    // Victims spread across the id space (avoids only testing peer 0's
    // special cases, e.g. owning many Chord keys).
    std::size_t n = env.net().num_nodes();
    std::size_t stride = n / num_crashed_peers;
    if (stride == 0) stride = 1;
    std::vector<NodeId> victims;
    for (std::size_t i = 0; i < num_crashed_peers && i * stride < n; ++i) {
      victims.push_back(static_cast<NodeId>(i * stride));
    }
    out.crashed = victims.size();

    // Checkpoint before the crash, evict (what the crash destroys), then
    // restore from the checkpoint — the exact warm-rejoin path.
    std::vector<std::string> blobs(victims.size());
    for (std::size_t i = 0; i < victims.size(); ++i) {
      Result<std::string> blob = stateful->Snapshot(victims[i]);
      if (!blob.ok()) return blob.status();
      blobs[i] = std::move(blob).value();
      out.checkpoint_bytes += blobs[i].size();
    }
    for (NodeId v : victims) stateful->EvictPeer(v);
    for (std::size_t i = 0; i < victims.size(); ++i) {
      P2PDT_RETURN_IF_ERROR(stateful->Restore(victims[i], blobs[i]));
      ++out.restored;
      // Byte-exact round trip: re-snapshotting a restored peer must
      // reproduce the pre-crash blob.
      Result<std::string> again = stateful->Snapshot(victims[i]);
      if (!again.ok() || *again != blobs[i]) ++out.resnapshot_mismatches;
    }
    // One anti-entropy round, as a real rejoin would run.
    std::size_t outstanding = victims.size();
    bool resynced = (outstanding == 0);
    for (NodeId v : victims) {
      stateful->ResyncPeer(v, [&] {
        if (--outstanding == 0) resynced = true;
      });
    }
    env.RunUntilFlag(resynced, kMaxTrainSimSeconds);
    if (!resynced) return Status::Internal("resync did not quiesce");
  }

  // Identical prediction workload to RunExperiment's evaluation loop.
  Rng eval_rng(options.seed ^ 0xE7A1);
  std::vector<std::size_t> test_idx(split.test.size());
  std::iota(test_idx.begin(), test_idx.end(), 0);
  eval_rng.Shuffle(test_idx);
  if (options.max_test_documents > 0 &&
      test_idx.size() > options.max_test_documents) {
    test_idx.resize(options.max_test_documents);
  }
  out.predictions.resize(test_idx.size());
  std::size_t outstanding = test_idx.size();
  bool predict_done = (outstanding == 0);
  for (std::size_t i = 0; i < test_idx.size(); ++i) {
    const MultiLabelExample& ex = split.test[test_idx[i]];
    NodeId requester = eval_rng.NextU64(env.net().num_nodes());
    algo.Predict(requester, ex.x, [&, i](P2PPrediction p) {
      out.predictions[i] = std::move(p);
      if (--outstanding == 0) predict_done = true;
    });
  }
  env.RunUntilFlag(predict_done, kMaxPredictSimSeconds);
  if (!predict_done) return Status::Internal("prediction did not quiesce");
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

Result<CrashRestoreReport> RunCrashRestoreExperiment(
    const VectorizedCorpus& corpus, const ExperimentOptions& base,
    std::size_t num_crashed_peers) {
  ExperimentOptions options = base;
  options.env.churn = ChurnType::kNone;  // isolate the restore path
  options.recovery.enabled = false;      // this harness drives recovery itself

  Result<PassOutput> baseline = RunPass(corpus, options, 0);
  if (!baseline.ok()) return baseline.status();
  Result<PassOutput> recovered = RunPass(corpus, options, num_crashed_peers);
  if (!recovered.ok()) return recovered.status();

  CrashRestoreReport report;
  report.algorithm = AlgorithmTypeToString(options.algorithm);
  report.crashed_peers = recovered->crashed;
  report.restored_peers = recovered->restored;
  report.resnapshot_mismatches = recovered->resnapshot_mismatches;
  report.checkpoint_bytes = recovered->checkpoint_bytes;
  report.predictions = baseline->predictions.size();
  if (baseline->predictions.size() != recovered->predictions.size()) {
    return Status::Internal("prediction counts diverged between passes");
  }
  for (std::size_t i = 0; i < baseline->predictions.size(); ++i) {
    const P2PPrediction& a = baseline->predictions[i];
    const P2PPrediction& b = recovered->predictions[i];
    if (a.tags != b.tags) ++report.mismatched_tags;
    if (!SameBits(a.scores, b.scores)) ++report.mismatched_scores;
  }
  return report;
}

}  // namespace p2pdt
