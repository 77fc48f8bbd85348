// DRIFT1 — drift robustness: stream a non-stationary corpus (sudden
// vocabulary shift, gradual topic rotation, popularity spikes, new-tag
// introduction) through the live protocols and sweep retrain policy ×
// packet loss × churn.
//
// Expected shape: under the frozen policy macro-F1 dips at the drift epoch
// and stays degraded; the retraining policies (periodic / staleness- /
// drift-triggered) re-converge to within a couple of macro-F1 points of the
// pre-drift level within a few epochs, at the cost of refresh traffic —
// even at 20 % loss, because the republish rides the reliable transport.
// Stationary ("none") rows are bit-identical across the non-periodic
// policies wherever the *service* is stationary too (all PACE rows, and
// every zero-loss row): nothing triggers, so the armed machinery is idle.
// CEMPaR under 20 % loss is the deliberate exception — its serving quality
// genuinely erodes as loss starves peers of models, the detector reads
// that erosion as drift, and the triggered republish repairs it
// (self-healing; the frozen arm stays degraded).
//
// `--smoke` runs a small PACE-only grid and writes the same CSV schema for
// CI validation (tools/check_csv.py).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "p2pdmt/drift.h"

using namespace p2pdt_bench;

namespace {

StreamOptions BaseStream() {
  StreamOptions stream;
  stream.base.num_users = 24;
  stream.base.num_tags = 6;
  stream.base.vocabulary_size = 1200;
  stream.base.topic_words_per_tag = 40;
  stream.base.min_doc_words = 30;
  stream.base.max_doc_words = 80;
  stream.base.seed = 20100913;
  stream.num_epochs = 8;
  stream.min_docs_per_user_per_epoch = 4;
  stream.max_docs_per_user_per_epoch = 7;
  stream.reserve_tags = 1;
  return stream;
}

DriftExperimentOptions BaseOptions() {
  DriftExperimentOptions base;
  // The refresh republish rides the reliable transport — that is the whole
  // point of the 20 %-loss arm.
  base.pace.reliable_dissemination = true;
  base.cempar.reliable_transport = true;
  base.window_documents = 40;
  // Tuned to the stream cadence (~5 docs per peer per epoch): the anchor
  // forms during the first post-train epoch or two, a sustained quality
  // collapse fills the window within two epochs, and staleness saturates
  // after about four epochs of neglect. The threshold is calibrated per
  // stream: across 24 peers the stationary per-peer Jaccard-gap noise
  // ceiling (max order statistic of a window-12 mean) measures ~0.22,
  // while a sudden vocabulary shift opens a gap of ~0.5 — 0.30 separates
  // the two with margin on both sides. The benches are deterministic, so
  // zero stationary firings is an exact, checkable property of this
  // config, not a probabilistic hope.
  base.staleness.window = 12;
  base.staleness.min_observations = 8;
  base.staleness.fast_alpha = 0.3;
  base.staleness.slow_alpha = 0.01;
  base.staleness.drift_threshold = 0.30;
  base.staleness.stale_after_docs = 24;
  base.staleness_trigger = 0.5;
  base.periodic_interval_epochs = 2;
  return base;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  StreamOptions stream = BaseStream();
  DriftExperimentOptions base = BaseOptions();
  std::vector<AlgorithmType> algorithms = {AlgorithmType::kPace,
                                           AlgorithmType::kCempar};
  std::vector<std::string> scenarios = {"none", "sudden_vocab",
                                        "gradual_rotation", "popularity_spike",
                                        "new_tag"};
  std::vector<RetrainPolicy> policies = {
      RetrainPolicy::kFrozen, RetrainPolicy::kPeriodic,
      RetrainPolicy::kStalenessTriggered, RetrainPolicy::kDriftTriggered};
  std::vector<double> loss_rates = {0.0, 0.2};
  // A churn-on arm (exponential churn, every policy) at the headline
  // scenario and the highest loss rate.
  bool churn_arm = true;
  if (smoke) {
    std::printf("=== DRIFT1 smoke: stationary + sudden vocab shift for CI "
                "===\n");
    stream.base.num_users = 10;
    stream.base.num_tags = 4;
    stream.base.vocabulary_size = 800;
    stream.num_epochs = 6;
    stream.min_docs_per_user_per_epoch = 3;
    stream.max_docs_per_user_per_epoch = 5;
    // The smoke stream is smaller and harder (baseline Jaccard ~0.42), which
    // compresses both the noise ceiling (~0.034 across 10 peers) and the
    // drift signal (~0.06-0.16) — recalibrate the threshold to its scale.
    base.staleness.drift_threshold = 0.06;
    algorithms = {AlgorithmType::kPace};
    scenarios = {"none", "sudden_vocab"};
    policies = {RetrainPolicy::kFrozen, RetrainPolicy::kDriftTriggered};
    loss_rates = {0.2};
    churn_arm = false;
  } else {
    std::printf("=== DRIFT1: drift scenario x retrain policy x loss x churn "
                "===\n\n");
  }
  const double max_loss =
      *std::max_element(loss_rates.begin(), loss_rates.end());

  CsvWriter csv;
  for (const std::string& scenario : scenarios) {
    // One stream per scenario, shared by every arm (generation dominates
    // setup).
    Result<std::vector<DriftEvent>> events = ScenarioEvents(scenario, stream);
    if (!events.ok()) {
      std::fprintf(stderr, "sweep failed: %s\n",
                   events.status().ToString().c_str());
      return 1;
    }
    StreamOptions scenario_stream = stream;
    scenario_stream.events = std::move(events).value();
    Result<VectorizedStream> vectorized =
        MakeVectorizedStream(scenario_stream);
    if (!vectorized.ok()) {
      std::fprintf(stderr, "sweep failed: %s\n",
                   vectorized.status().ToString().c_str());
      return 1;
    }
    // (loss, churn) arms: every loss rate without churn, then the churn arm.
    std::vector<std::pair<double, bool>> arms;
    for (double loss : loss_rates) arms.push_back({loss, false});
    if (churn_arm && scenario == "sudden_vocab") arms.push_back({max_loss, true});

    for (AlgorithmType algo : algorithms) {
      for (const auto& [loss, churn] : arms) {
        for (RetrainPolicy policy : policies) {
          DriftExperimentOptions opt = base;
          opt.algorithm = algo;
          opt.policy = policy;
          opt.env.physical.loss_rate = loss;
          opt.env.churn = churn ? ChurnType::kExponential : ChurnType::kNone;
          Result<DriftExperimentResult> r =
              RunDriftExperiment(vectorized.value(), opt);
          if (!r.ok()) {
            P2PDT_LOG(Warning)
                << AlgorithmTypeToString(algo) << " scenario=" << scenario
                << " policy=" << RetrainPolicyToString(policy)
                << " loss=" << loss << " churn=" << churn
                << " failed: " << r.status().ToString();
            continue;
          }
          CsvWriter::Row row;
          row.Add("algorithm", r->algorithm)
              .Add("scenario", scenario)
              .Add("policy", r->policy)
              .Add("loss_rate", loss)
              .Flag("churn", churn)
              .Add("num_epochs", r->num_epochs)
              .Add("first_drift_epoch", r->first_drift_epoch)
              .Add("pre_drift_f1", r->pre_drift_f1)
              .Add("min_post_drift_f1", r->min_post_drift_f1)
              .Add("final_f1", r->final_f1)
              .Add("max_dip", r->max_dip)
              .Add("recovery_epochs", r->recovery_epochs)
              .Flag("reconverged", r->reconverged)
              .Add("retrains", r->retrains)
              .Add("drift_detections", r->drift_detections)
              .Add("give_ups", r->give_ups)
              .Add("suspected_peers", r->suspected_peers)
              .Add("total_messages", r->total_messages)
              .Add("total_bytes", r->total_bytes)
              .Hex("fingerprint", r->fingerprint);
          if (!EmitRow(csv, row)) return 1;
        }
      }
    }
  }
  if (csv.num_rows() == 0) {
    std::fprintf(stderr, "sweep produced no rows\n");
    return 1;
  }
  WriteResults(csv, "drift.csv");
  return 0;
}
