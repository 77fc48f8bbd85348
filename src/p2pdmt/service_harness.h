#ifndef P2PDT_P2PDMT_SERVICE_HARNESS_H_
#define P2PDT_P2PDMT_SERVICE_HARNESS_H_

#include <memory>
#include <vector>

#include "corpus/vectorize.h"
#include "p2pdmt/experiment.h"
#include "p2pml/service_host.h"

namespace p2pdt {

/// What BuildTrainedService assembles for the real-socket daemon: a trained
/// classifier inside its environment, the synchronous ServiceHost bridge,
/// and an owned popularity-ordered request catalog (test-split documents the
/// daemon's clients tag). Everything the dispatch closure references lives
/// here, so keep the struct alive as long as the daemon serves.
struct TrainedService {
  std::unique_ptr<Environment> env;
  std::unique_ptr<P2PClassifier> classifier;
  std::unique_ptr<ServiceHost> host;
  /// Owned copies (unlike the experiment harnesses' borrowed views — the
  /// split this was cut from is gone by the time the daemon serves).
  std::vector<SparseVector> catalog;
  std::size_t num_peers = 0;
  double train_sim_seconds = 0.0;

  /// Serves one request on the caller's thread: the wire requester id maps
  /// onto a real peer by modulo, then ServiceHost drives the protocol to
  /// an answer. Matches ServiceDaemon::Dispatch.
  P2PPrediction Serve(NodeId requester, const SparseVector& x) {
    return host->Predict(requester % num_peers, x);
  }
};

struct ServiceHarnessOptions {
  AlgorithmType algorithm = AlgorithmType::kPace;
  EnvironmentOptions env;
  DataDistributionOptions distribution;
  CemparOptions cempar;
  PaceOptions pace;
  /// Always the paper's split; a member so callers can read it off the
  /// options they trained with.
  static constexpr double train_fraction = kTrainFraction;
  /// Cap on the catalog drawn from the test split (0 = all).
  std::size_t max_docs = 0;
  uint64_t seed = 777;
};

/// Trains `algorithm` on `corpus` exactly the way the experiment harnesses
/// do (same split, distribution, shard setup and training drive), then
/// packages it for synchronous serving. Churn is left to the caller's env
/// options; the daemon defaults assume none (a serving deployment, not a
/// churn study).
Result<std::unique_ptr<TrainedService>> BuildTrainedService(
    const VectorizedCorpus& corpus, const ServiceHarnessOptions& options);

/// The catalog a *client* of a daemon built from the same corpus + split
/// parameters sees: byte-identical to TrainedService::catalog. This is how
/// p2pdt_client reconstructs the documents to tag without any transfer —
/// both sides derive them deterministically from (corpus seed, split seed).
std::vector<SparseVector> BuildServiceCatalog(const VectorizedCorpus& corpus,
                                              std::size_t max_docs,
                                              uint64_t seed);

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_SERVICE_HARNESS_H_
