// DEMO3 + durability — behaviour under churn (paper Sec. 3) extended with
// the durable-peer-state layer:
//
//  1. Crash-restore equivalence: a mid-run crash followed by a checkpoint
//     restore must be *bit-identical* to never having crashed (tags and raw
//     scores compared exactly).
//  2. Warm-vs-cold rejoin sweep across churn models (none / exponential /
//     pareto): same seeds, same churn schedule, and deterministic training
//     hands a rejoining peer the same models either way. Warm rejoin must
//     be strictly cheaper whenever rejoins happen — retrain work and
//     rejoin latency. Quality may differ: cold's longer rejoin delay moves
//     the anti-entropy round that follows it (CEMPaR under Pareto churn
//     ends a point apart). Written to bench_results/churn.csv and checked
//     by tools/check_csv.py --strict.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "p2pdmt/recovery_experiment.h"

using namespace p2pdt_bench;

int main() {
  std::printf("=== DEMO3: durability and recovery under churn ===\n\n");
  const VectorizedCorpus& corpus = SharedCorpus(/*num_users=*/128,
                                                /*num_tags=*/12);

  // --- 1. Crash-restore equivalence -----------------------------------
  std::printf("--- crash-restore equivalence (checkpoint warm restore) ---\n");
  for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
    ExperimentOptions opt = MacroDefaults(algo, 64);
    opt.max_test_documents = 200;
    Result<CrashRestoreReport> report =
        RunCrashRestoreExperiment(corpus, opt, /*num_crashed_peers=*/8);
    if (!report.ok()) {
      std::fprintf(stderr, "%s crash-restore failed: %s\n",
                   AlgorithmTypeToString(algo),
                   report.status().ToString().c_str());
      continue;
    }
    std::printf(
        "%-12s crashed=%zu restored=%zu ckpt=%.1fKiB predictions=%zu "
        "tag-mismatch=%zu score-mismatch=%zu resnap-mismatch=%zu  %s\n",
        report->algorithm.c_str(), report->crashed_peers,
        report->restored_peers,
        static_cast<double>(report->checkpoint_bytes) / 1024.0,
        report->predictions, report->mismatched_tags,
        report->mismatched_scores, report->resnapshot_mismatches,
        report->bit_identical() ? "BIT-IDENTICAL" : "DIVERGED");
  }

  // --- 2. Warm-vs-cold rejoin sweep -----------------------------------
  std::printf("\n--- warm vs cold rejoin across churn models ---\n");
  ExperimentOptions base = MacroDefaults(AlgorithmType::kPace, 96);
  base.max_test_documents = 200;
  // Moderate churn: ~6% of peers offline at any instant, ~100 rejoins over
  // the exposure window. Heavier settings leave so many anti-entropy repairs
  // in flight at eval time that CEMPaR's DHT-side quality becomes dominated
  // by repair *timing* noise rather than by peer state, which is the wrong
  // thing to compare warm vs cold on.
  base.env.churn_mean_online_sec = 450.0;
  base.env.churn_mean_offline_sec = 30.0;
  base.recovery.enabled = true;
  // Post-training churn exposure before evaluation.
  base.post_train_sim_seconds = 600.0;

  CsvWriter csv;
  for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
    for (ChurnType churn :
         {ChurnType::kNone, ChurnType::kExponential, ChurnType::kPareto}) {
      for (bool warm : {true, false}) {
        ExperimentOptions opt = base;
        opt.algorithm = algo;
        opt.env.churn = churn;
        opt.recovery.warm_rejoin = warm;
        Result<ExperimentResult> r = RunExperiment(corpus, opt);
        if (!r.ok()) {
          P2PDT_LOG(Warning)
              << AlgorithmTypeToString(algo)
              << " churn=" << ChurnTypeToString(churn)
              << " mode=" << (warm ? "warm" : "cold")
              << " failed: " << r.status().ToString();
          continue;
        }
        CsvWriter::Row row;
        row.Add("algorithm", r->algorithm)
            .Add("churn", r->churn)
            .Add("rejoin_mode", warm ? "warm" : "cold")
            .Add("micro_f1", r->metrics.micro_f1)
            .Add("macro_f1", r->metrics.macro_f1)
            .Add("failed", r->failed_predictions)
            .Add("attempted", r->test_documents)
            .Add("failures", r->churn_failures)
            .Add("rejoins", r->churn_rejoins)
            .Add("warm_rejoins", r->warm_rejoins)
            .Add("cold_rejoins", r->cold_rejoins)
            .Add("corrupt_checkpoints", r->corrupt_checkpoints)
            // Training examples refit by rejoining peers: the work warm
            // rejoin avoids.
            .Add("retrain_examples", r->retrain_examples)
            .Add("checkpoint_bytes", r->checkpoint_bytes)
            .Add("mean_rejoin_latency_sec", r->mean_rejoin_latency_sec)
            .Add("max_rejoin_latency_sec", r->max_rejoin_latency_sec);
        if (!EmitRow(csv, row)) return 1;
      }
    }
  }
  WriteResults(csv, "churn.csv");
  return 0;
}
