#ifndef P2PDT_P2PDMT_EXPERIMENT_H_
#define P2PDT_P2PDMT_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cost_ledger.h"
#include "common/status.h"
#include "corpus/vectorize.h"
#include "ml/metrics.h"
#include "p2pdmt/data_distribution.h"
#include "p2pdmt/environment.h"
#include "p2pdmt/recovery.h"
#include "p2pml/baselines.h"
#include "p2pml/cempar.h"
#include "p2pml/pace.h"

namespace p2pdt {

/// The pluggable P2P classification algorithms an experiment can run.
enum class AlgorithmType {
  kCempar,
  kPace,
  kCentralized,
  kLocalOnly,
  kModelAvg,
};

const char* AlgorithmTypeToString(AlgorithmType t);

/// Fraction of tagged documents used for training: the paper's
/// demonstration uses 20 % ("20 percent of the documents with tags are
/// used for training", Sec. 3).
inline constexpr double kTrainFraction = 0.2;
/// Simulated-time budget for a training protocol to quiesce.
inline constexpr double kMaxTrainSimSeconds = 3600.0;
/// Simulated-time budget for a predict sweep to answer.
inline constexpr double kMaxPredictSimSeconds = 3600.0;

/// Full description of one experiment run — P2PDMT's "Set parameters"
/// surface (Fig. 2): network, churn, overlay, data distribution, algorithm
/// and evaluation settings.
struct ExperimentOptions {
  EnvironmentOptions env;
  DataDistributionOptions distribution;
  AlgorithmType algorithm = AlgorithmType::kPace;
  CemparOptions cempar;
  PaceOptions pace;

  /// Cap on evaluated test documents (sampled) to bound run time; 0 = all.
  std::size_t max_test_documents = 400;
  /// Cap on distinct requester peers used during evaluation; 0 = the legacy
  /// behavior (any online peer may be drawn per document). At 100k peers
  /// restricting requesters to a deterministic sample bounds per-requester
  /// state (caches, probation clocks) without changing what is measured —
  /// see DeterministicSample in p2pdmt/evaluation.h.
  std::size_t max_eval_peers = 0;
  /// Warm-up simulated seconds before training starts (lets churn and
  /// stabilization reach steady state).
  double warmup_sim_seconds = 0.0;
  /// Durable peer state: checkpoint trained models and recover rejoining
  /// peers warm (restore) or cold (retrain) — see RecoveryCoordinator.
  RecoveryOptions recovery;
  /// Simulated seconds of post-training churn exposure before evaluation
  /// (lets failures/rejoins — and hence recoveries — actually happen).
  double post_train_sim_seconds = 0.0;
  /// Observability artifacts (all optional; empty = don't write). Each
  /// requires the matching env.observe subsystem to be enabled, otherwise
  /// there is nothing to export and the path is an error.
  std::string report_path;   ///< Run report JSON; needs metrics.
  std::string metrics_path;  ///< Raw metrics registry JSON export.
  std::string trace_path;    ///< Chrome trace_event JSON export.
  std::string profile_path;  ///< Collapsed-stack flamegraph text export.
  uint64_t seed = 777;
};

/// Everything one run produces: quality, cost, timing and context.
struct ExperimentResult {
  std::string algorithm;
  std::string overlay;
  std::string churn;
  std::size_t num_peers = 0;
  std::size_t train_documents = 0;
  std::size_t test_documents = 0;

  MultiLabelMetrics metrics;
  std::size_t failed_predictions = 0;
  /// Predictions answered from a degraded path (local-model fallback after
  /// the reliable transport exhausted its retries). Counted as successes.
  std::size_t degraded_predictions = 0;

  /// Delivery / reliability accounting over the whole run.
  double delivery_rate = 1.0;
  uint64_t dropped_messages = 0;
  uint64_t injected_drops = 0;
  uint64_t retransmits = 0;
  uint64_t acks_received = 0;
  uint64_t give_ups = 0;
  /// Peers the reliable transport currently suspects dead (consecutive
  /// give-ups without a later ACK) at the end of the run; 0 when the
  /// algorithm ran fire-and-forget.
  uint64_t suspected_peers = 0;
  /// PACE only: fraction of (receiver, contributor) pairs holding the
  /// contributor's model after training (-1 for other algorithms).
  double model_coverage = -1.0;

  /// Byzantine-defense counters from the protocol's sanitation + reputation
  /// stack (all 0 for protocols without one, or when nothing was hostile).
  uint64_t models_rejected = 0;
  uint64_t votes_discarded = 0;
  uint64_t quarantined_pairs = 0;
  uint64_t trust_observations = 0;

  /// Communication, split by phase (snapshot deltas around each phase).
  uint64_t train_messages = 0;
  uint64_t train_bytes = 0;
  uint64_t predict_messages = 0;
  uint64_t predict_bytes = 0;
  uint64_t maintenance_messages = 0;
  uint64_t maintenance_bytes = 0;

  double train_sim_seconds = 0.0;
  double predict_sim_seconds = 0.0;
  double wall_seconds = 0.0;

  /// Churn exposure over the run (0 when the churn model is `none`).
  uint64_t churn_failures = 0;
  uint64_t churn_rejoins = 0;
  /// Recovery accounting (all 0 unless options.recovery.enabled).
  uint64_t warm_rejoins = 0;
  uint64_t cold_rejoins = 0;
  uint64_t corrupt_checkpoints = 0;
  uint64_t retrain_examples = 0;
  uint64_t checkpoint_bytes = 0;
  double mean_rejoin_latency_sec = 0.0;
  double max_rejoin_latency_sec = 0.0;

  DistributionSummary distribution;

  /// Snapshot of every metric the environment collected (empty unless
  /// env.observe.metrics was set) — phase latency histograms live here.
  MetricsSnapshot observability;

  /// Deterministic hot-path cost ledger deltas per phase (all zero unless
  /// env.observe.cost_ledger was set). Bit-identical across shard/thread
  /// configurations at a fixed seed.
  bool cost_ledger_enabled = false;
  CostCounts train_cost;
  CostCounts predict_cost;

  /// Mean bytes per peer spent on training — the per-user cost the paper's
  /// efficiency argument is about.
  double train_bytes_per_peer() const {
    return num_peers == 0 ? 0.0
                          : static_cast<double>(train_bytes) /
                                static_cast<double>(num_peers);
  }
  /// Mean bytes per prediction request.
  double predict_bytes_per_doc() const {
    return test_documents == 0 ? 0.0
                               : static_cast<double>(predict_bytes) /
                                     static_cast<double>(test_documents);
  }

  std::string ToString() const;
};

/// Runs one experiment end to end: split → distribute → build environment
/// → train protocol → evaluate predictions, all in simulated time.
/// `corpus` can be shared across many runs (it is read-only here), so
/// sweeps re-use one expensive preprocessing pass.
Result<ExperimentResult> RunExperiment(const VectorizedCorpus& corpus,
                                       const ExperimentOptions& options);

/// Builds the classifier for `options` against an environment (exposed for
/// benches that need direct protocol access, e.g. fault injection).
Result<std::unique_ptr<P2PClassifier>> MakeClassifier(
    Environment& env, const ExperimentOptions& options);

/// An environment with a classifier set up on its peers' data and the
/// environment's dynamics started: what every harness builds before it
/// trains.
struct SimulatedClassifier {
  std::unique_ptr<Environment> env;
  std::unique_ptr<P2PClassifier> algo;
  /// `algo` as a protocol with durable, refreshable peer state (CEMPaR and
  /// PACE); null for the baselines.
  StatefulP2PClassifier* stateful = nullptr;
};

/// Creates `options.env`, builds `options.algorithm` on it (MakeClassifier),
/// sets it up on `shards` (one per peer) and starts the dynamics.
Result<SimulatedClassifier> SetupClassifier(const ExperimentOptions& options,
                                            std::vector<DatasetShard> shards,
                                            TagId num_tags);

/// Runs the training protocol until it reports, for at most
/// `max_sim_seconds` of simulated time. Returns the simulated seconds
/// training took; an error when it failed or did not quiesce.
Result<double> TrainToQuiescence(Environment& env, P2PClassifier& algo,
                                 double max_sim_seconds);

/// Deterministically splits `corpus` into train/test keeping the user
/// mapping (needed for by-user distribution).
struct CorpusSplit {
  MultiLabelDataset train;
  std::vector<std::size_t> train_user;
  MultiLabelDataset test;
  std::vector<std::size_t> test_user;
};
CorpusSplit SplitCorpus(const VectorizedCorpus& corpus, double train_fraction,
                        uint64_t seed);

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_EXPERIMENT_H_
