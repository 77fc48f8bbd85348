#include "p2pdmt/experiment.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <numeric>

#include <memory>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "p2pdmt/evaluation.h"
#include "p2pdmt/run_report.h"

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace p2pdt {

const char* AlgorithmTypeToString(AlgorithmType t) {
  switch (t) {
    case AlgorithmType::kCempar:
      return "cempar";
    case AlgorithmType::kPace:
      return "pace";
    case AlgorithmType::kCentralized:
      return "centralized";
    case AlgorithmType::kLocalOnly:
      return "local_only";
    case AlgorithmType::kModelAvg:
      return "model_avg";
  }
  return "unknown";
}

CorpusSplit SplitCorpus(const VectorizedCorpus& corpus, double train_fraction,
                        uint64_t seed) {
  CorpusSplit split;
  split.train.set_num_tags(corpus.dataset.num_tags());
  split.test.set_num_tags(corpus.dataset.num_tags());
  Rng rng(seed);
  std::vector<std::size_t> order(corpus.dataset.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  std::size_t n_train = static_cast<std::size_t>(
      train_fraction * static_cast<double>(order.size()) + 0.5);
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::size_t idx = order[i];
    if (i < n_train) {
      split.train.Add(corpus.dataset[idx]);
      split.train_user.push_back(corpus.doc_user[idx]);
    } else {
      split.test.Add(corpus.dataset[idx]);
      split.test_user.push_back(corpus.doc_user[idx]);
    }
  }
  return split;
}

Result<std::unique_ptr<P2PClassifier>> MakeClassifier(
    Environment& env, const ExperimentOptions& options) {
  switch (options.algorithm) {
    case AlgorithmType::kCempar: {
      if (env.chord() == nullptr) {
        return Status::FailedPrecondition(
            "CEMPaR requires a DHT (Chord) overlay");
      }
      return std::unique_ptr<P2PClassifier>(std::make_unique<Cempar>(
          env.sim(), env.net(), *env.chord(), options.cempar));
    }
    case AlgorithmType::kPace:
      return std::unique_ptr<P2PClassifier>(std::make_unique<Pace>(
          env.sim(), env.net(), env.overlay(), options.pace));
    case AlgorithmType::kCentralized:
      return std::unique_ptr<P2PClassifier>(
          std::make_unique<CentralizedClassifier>(env.sim(), env.net()));
    case AlgorithmType::kLocalOnly:
      return std::unique_ptr<P2PClassifier>(
          std::make_unique<LocalOnlyClassifier>(env.sim(), env.net()));
    case AlgorithmType::kModelAvg:
      return std::unique_ptr<P2PClassifier>(
          std::make_unique<ModelAveragingClassifier>(
              env.sim(), env.net(), env.overlay()));
  }
  return Status::InvalidArgument("unknown algorithm");
}

Result<SimulatedClassifier> SetupClassifier(const ExperimentOptions& options,
                                            std::vector<DatasetShard> shards,
                                            TagId num_tags) {
  SimulatedClassifier sim;
  Result<std::unique_ptr<Environment>> env = Environment::Create(options.env);
  if (!env.ok()) return env.status();
  sim.env = std::move(env).value();
  Result<std::unique_ptr<P2PClassifier>> algo =
      MakeClassifier(*sim.env, options);
  if (!algo.ok()) return algo.status();
  sim.algo = std::move(algo).value();
  sim.stateful = dynamic_cast<StatefulP2PClassifier*>(sim.algo.get());
  P2PDT_RETURN_IF_ERROR(sim.algo->SetupShards(std::move(shards), num_tags));
  sim.env->StartDynamics();
  return sim;
}

Result<double> TrainToQuiescence(Environment& env, P2PClassifier& algo,
                                 double max_sim_seconds) {
  bool done = false;
  Status status = Status::OK();
  double seconds = 0.0;
  const SimTime start = env.sim().Now();
  algo.Train([&](Status s) {
    status = s;
    done = true;
    seconds = env.sim().Now() - start;
  });
  env.RunUntilFlag(done, max_sim_seconds);
  if (!done) {
    return Status::Internal("training protocol did not quiesce in " +
                            std::to_string(max_sim_seconds) +
                            " simulated seconds");
  }
  P2PDT_RETURN_IF_ERROR(status);
  return seconds;
}

namespace {

struct StatsSnapshot {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t maintenance_messages = 0;
  uint64_t maintenance_bytes = 0;

  static StatsSnapshot Take(const NetworkStats& stats) {
    StatsSnapshot s;
    s.messages = stats.messages_sent();
    s.bytes = stats.bytes_sent();
    s.maintenance_messages =
        stats.messages_sent(MessageType::kOverlayMaintenance);
    s.maintenance_bytes = stats.bytes_sent(MessageType::kOverlayMaintenance);
    return s;
  }
};

/// Unique per-run scratch directory for auto-managed checkpoints; pid +
/// counter keep `ctest -j` processes and same-process sweeps apart.
std::string MakeCheckpointScratchDir(uint64_t seed) {
  static std::atomic<uint64_t> counter{0};
#ifdef _WIN32
  int pid = _getpid();
#else
  int pid = getpid();
#endif
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("p2pdt-ckpt-" + std::to_string(pid) + "-" + std::to_string(seed) +
       "-" + std::to_string(counter.fetch_add(1)));
  return dir.string();
}

/// Removes an auto-created scratch directory on every exit path.
struct ScratchDirGuard {
  std::string dir;
  ~ScratchDirGuard() {
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

/// Restores the process-wide ledger enable bit on every exit path.
struct LedgerGuard {
  bool active = false;
  bool prev = false;
  void Enable() {
    prev = CostLedger::SetEnabled(true);
    active = true;
  }
  ~LedgerGuard() {
    if (active) CostLedger::SetEnabled(prev);
  }
};

}  // namespace

Result<ExperimentResult> RunExperiment(const VectorizedCorpus& corpus,
                                       const ExperimentOptions& options) {
  Stopwatch wall;
  ExperimentResult result;
  result.algorithm = AlgorithmTypeToString(options.algorithm);
  result.overlay = OverlayTypeToString(options.env.overlay);
  result.churn = ChurnTypeToString(options.env.churn);
  result.num_peers = options.env.num_peers;

  // 1. Split and distribute.
  CorpusSplit split = SplitCorpus(corpus, kTrainFraction, options.seed);
  result.train_documents = split.train.size();
  // The training corpus becomes one shared immutable block; every peer gets
  // a flyweight index view into it (same RNG draws, hence the same
  // assignment, as the old copy-out DistributeData).
  auto train_corpus =
      std::make_shared<const MultiLabelDataset>(std::move(split.train));
  Result<std::vector<DatasetShard>> peers = DistributeDataShared(
      train_corpus, options.env.num_peers, options.distribution,
      &split.train_user);
  if (!peers.ok()) return peers.status();
  result.distribution =
      SummarizeDistribution(peers.value(), corpus.dataset.num_tags());

  // 2. Environment + algorithm.
  Result<SimulatedClassifier> sim = SetupClassifier(
      options, std::move(peers).value(), corpus.dataset.num_tags());
  if (!sim.ok()) return sim.status();
  Environment& env = *sim->env;
  P2PClassifier& algo = *sim->algo;
  if (options.warmup_sim_seconds > 0.0) {
    env.sim().RunUntil(env.sim().Now() + options.warmup_sim_seconds);
  }

  // Deterministic cost accounting: the ledger's thread-local counters are
  // cumulative for the process, so each phase is a Collect() delta taken at
  // pool quiesce points.
  LedgerGuard ledger;
  if (options.env.observe.cost_ledger) {
    ledger.Enable();
    result.cost_ledger_enabled = true;
  }

  // 3. Train.
  if (env.profiler() != nullptr) env.profiler()->SetPhase("train");
  CostCounts before_train_cost = CostLedger::Collect();
  StatsSnapshot before_train = StatsSnapshot::Take(env.net().stats());
  Result<double> train_seconds =
      TrainToQuiescence(env, algo, kMaxTrainSimSeconds);
  if (!train_seconds.ok()) return train_seconds.status();
  result.train_sim_seconds = *train_seconds;
  if (result.cost_ledger_enabled) {
    result.train_cost = CostLedger::Collect() - before_train_cost;
  }
  StatsSnapshot after_train = StatsSnapshot::Take(env.net().stats());
  result.train_messages = (after_train.messages - before_train.messages) -
                          (after_train.maintenance_messages -
                           before_train.maintenance_messages);
  result.train_bytes =
      (after_train.bytes - before_train.bytes) -
      (after_train.maintenance_bytes - before_train.maintenance_bytes);

  // 3b. Durability: checkpoint the trained peers, then recover every peer
  // that churns out and back during the post-training exposure window.
  std::unique_ptr<CheckpointManager> checkpoints;
  std::unique_ptr<RecoveryCoordinator> recovery;
  ScratchDirGuard scratch;
  if (options.recovery.enabled) {
    if (sim->stateful == nullptr) {
      return Status::FailedPrecondition(
          std::string(AlgorithmTypeToString(options.algorithm)) +
          " does not support durable peer state");
    }
    std::string dir = options.recovery.checkpoint_dir;
    if (dir.empty()) {
      scratch.dir = MakeCheckpointScratchDir(options.seed);
      dir = scratch.dir;
    }
    checkpoints = std::make_unique<CheckpointManager>(dir);
    recovery = std::make_unique<RecoveryCoordinator>(
        env.sim(), env.net(), env.churn(), *sim->stateful, *checkpoints,
        options.recovery);
    P2PDT_RETURN_IF_ERROR(recovery->CheckpointAll());
    recovery->Attach();
  }
  if (options.post_train_sim_seconds > 0.0) {
    bool never = false;
    env.RunUntilFlag(never, options.post_train_sim_seconds);
    // Recovery/resync traffic in this window is neither training nor
    // prediction cost; restart the prediction delta from here.
    after_train = StatsSnapshot::Take(env.net().stats());
  }

  // 4. Evaluate: sample test documents, predict from random online peers.
  if (env.profiler() != nullptr) env.profiler()->SetPhase("predict");
  CostCounts before_predict_cost = CostLedger::Collect();
  Rng eval_rng(options.seed ^ 0xE7A1);
  std::vector<std::size_t> test_idx(split.test.size());
  std::iota(test_idx.begin(), test_idx.end(), 0);
  eval_rng.Shuffle(test_idx);
  if (options.max_test_documents > 0 &&
      test_idx.size() > options.max_test_documents) {
    test_idx.resize(options.max_test_documents);
  }
  result.test_documents = test_idx.size();

  std::vector<std::vector<TagId>> truth(test_idx.size());
  std::vector<std::vector<TagId>> predicted(test_idx.size());
  std::size_t outstanding = test_idx.size();
  bool predict_done = (outstanding == 0);
  std::size_t failed = 0;
  std::size_t degraded = 0;

  // Sampled evaluation: with max_eval_peers set, requesters are drawn from
  // a deterministic subsample of the network instead of all of it (same
  // pool for every run and thread count). Empty = legacy full-network
  // draw, with the RNG call sequence untouched.
  std::vector<std::size_t> eval_peers;
  if (options.max_eval_peers > 0 &&
      options.max_eval_peers < env.net().num_nodes()) {
    eval_peers = DeterministicSample(env.net().num_nodes(),
                                     options.max_eval_peers,
                                     options.seed ^ 0x5A3F);
  }
  auto pick_requester = [&]() -> NodeId {
    // Prefer an online peer; bounded retries keep this deterministic.
    if (!eval_peers.empty()) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        NodeId n = static_cast<NodeId>(
            eval_peers[eval_rng.NextU64(eval_peers.size())]);
        if (env.net().IsOnline(n)) return n;
      }
      return static_cast<NodeId>(
          eval_peers[eval_rng.NextU64(eval_peers.size())]);
    }
    for (int attempt = 0; attempt < 64; ++attempt) {
      NodeId n = eval_rng.NextU64(env.net().num_nodes());
      if (env.net().IsOnline(n)) return n;
    }
    return eval_rng.NextU64(env.net().num_nodes());
  };

  for (std::size_t i = 0; i < test_idx.size(); ++i) {
    const MultiLabelExample& ex = split.test[test_idx[i]];
    truth[i] = ex.tags;
    NodeId requester = pick_requester();
    algo.Predict(requester, ex.x, [&, i](P2PPrediction p) {
      if (!p.success) ++failed;
      if (p.degraded) ++degraded;
      predicted[i] = std::move(p.tags);
      if (--outstanding == 0) predict_done = true;
    });
  }
  result.predict_sim_seconds =
      env.RunUntilFlag(predict_done, kMaxPredictSimSeconds);
  if (!predict_done) {
    return Status::Internal("prediction phase did not quiesce");
  }
  if (result.cost_ledger_enabled) {
    result.predict_cost = CostLedger::Collect() - before_predict_cost;
  }
  StatsSnapshot after_predict = StatsSnapshot::Take(env.net().stats());
  result.predict_messages =
      (after_predict.messages - after_train.messages) -
      (after_predict.maintenance_messages - after_train.maintenance_messages);
  result.predict_bytes = (after_predict.bytes - after_train.bytes) -
                         (after_predict.maintenance_bytes -
                          after_train.maintenance_bytes);
  result.maintenance_messages = after_predict.maintenance_messages;
  result.maintenance_bytes = after_predict.maintenance_bytes;
  result.failed_predictions = failed;
  result.degraded_predictions = degraded;

  const NetworkStats& stats = env.net().stats();
  result.delivery_rate = stats.delivery_rate();
  result.dropped_messages = stats.messages_dropped();
  result.injected_drops = stats.dropped(DropReason::kInjectedFault);
  result.retransmits = stats.retransmits();
  result.acks_received = stats.acks_received();
  result.give_ups = stats.give_ups();
  if (auto* pace = dynamic_cast<Pace*>(&algo)) {
    result.model_coverage = pace->ModelCoverage();
  }
  if (const StatefulP2PClassifier* stateful = sim->stateful) {
    result.suspected_peers = stateful->runtime().NumSuspected();
    const DefenseStats defense = stateful->defense_stats();
    result.models_rejected = defense.models_rejected;
    result.votes_discarded = defense.votes_discarded;
    result.quarantined_pairs = defense.quarantined;
    result.trust_observations = defense.trust_observations;
  }
  result.churn_failures = env.churn().num_failures();
  result.churn_rejoins = env.churn().num_rejoins();
  result.warm_rejoins = env.churn().num_warm_rejoins();
  result.cold_rejoins = env.churn().num_cold_rejoins();
  if (recovery != nullptr) {
    const RecoveryStats& rs = recovery->stats();
    result.corrupt_checkpoints = rs.corrupt_checkpoints;
    result.retrain_examples = rs.retrain_examples;
    result.checkpoint_bytes = rs.snapshot_bytes;
    result.mean_rejoin_latency_sec = rs.mean_rejoin_latency_sec();
    result.max_rejoin_latency_sec = rs.max_rejoin_latency_sec;
  }

  result.metrics =
      EvaluateMultiLabel(truth, predicted, corpus.dataset.num_tags());
  result.wall_seconds = wall.ElapsedSeconds();

  // 5. Observability artifacts. The ledger deltas travel in train_cost and
  // predict_cost only; the registry holds no copy of them.
  if (env.metrics() != nullptr) {
    result.observability = env.metrics()->Snapshot();
  }
  if (!options.metrics_path.empty()) {
    if (env.metrics() == nullptr) {
      return Status::InvalidArgument(
          "metrics_path set but env.observe.metrics is off");
    }
    P2PDT_RETURN_IF_ERROR(env.metrics()->WriteJson(options.metrics_path));
  }
  if (!options.trace_path.empty()) {
    if (env.tracer() == nullptr) {
      return Status::InvalidArgument(
          "trace_path set but env.observe.tracing is off");
    }
    P2PDT_RETURN_IF_ERROR(env.tracer()->WriteChromeTrace(options.trace_path));
  }
  if (!options.profile_path.empty()) {
    if (env.profiler() == nullptr) {
      return Status::InvalidArgument(
          "profile_path set but env.observe.profiling is off");
    }
    P2PDT_RETURN_IF_ERROR(
        env.profiler()->WriteCollapsed(options.profile_path));
  }
  if (!options.report_path.empty()) {
    // The report's phases and overload sections come from the registry.
    if (env.metrics() == nullptr) {
      return Status::InvalidArgument(
          "report_path set but env.observe.metrics is off");
    }
    P2PDT_RETURN_IF_ERROR(RunReport::Write(options.report_path, result,
                                           result.observability));
  }
  if (env.metrics() != nullptr || env.tracer() != nullptr) {
    LogStructured(
        LogLevel::kInfo, "observability",
        {{"algorithm", result.algorithm},
         {"metrics",
          std::to_string(env.metrics() ? env.metrics()->num_metrics() : 0)},
         {"spans",
          std::to_string(env.tracer() ? env.tracer()->num_spans() : 0)},
         {"report", options.report_path}});
  }
  return result;
}

std::string ExperimentResult::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%-12s peers=%-5zu overlay=%-12s churn=%-11s microF1=%.4f "
      "jaccard=%.4f train=%.2fMiB (%.1fKiB/peer) predict=%.2fMiB "
      "failed=%zu/%zu degraded=%zu deliv=%.3f retx=%llu",
      algorithm.c_str(), num_peers, overlay.c_str(), churn.c_str(),
      metrics.micro_f1, metrics.jaccard_accuracy,
      static_cast<double>(train_bytes) / (1024.0 * 1024.0),
      train_bytes_per_peer() / 1024.0,
      static_cast<double>(predict_bytes) / (1024.0 * 1024.0),
      failed_predictions, test_documents, degraded_predictions,
      delivery_rate, static_cast<unsigned long long>(retransmits));
  return buf;
}

}  // namespace p2pdt
