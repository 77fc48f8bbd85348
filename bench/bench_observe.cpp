// OBS1 — cost of observability: run the same CEMPaR / PACE experiment with
// the observability stack off, with metrics + tracing on, and with the full
// stack (metrics + tracing + cost ledger + profiler) on, and report
// wall-clock and message counts side by side. The subsystems are required
// to be behavior-neutral (identical quality and traffic — enforced here,
// the bench fails on a mismatch). Each arm's wall-clock difference from the
// off arm is printed as advisory only: one run per arm, within run-to-run
// noise.
//
// `--smoke` runs one small traced CEMPaR experiment and one PACE
// experiment with the full stack and writes their artifacts (trace /
// metrics / run report JSON, collapsed-stack flamegraphs) under
// bench_results/observe/ for CI schema validation, skipping the sweep.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench/bench_util.h"

using namespace p2pdt_bench;

namespace {

enum class Arm { kOff, kObserve, kLedger };

const char* ArmName(Arm arm) {
  switch (arm) {
    case Arm::kOff:
      return "off";
    case Arm::kObserve:
      return "on";
    case Arm::kLedger:
      return "ledger";
  }
  return "?";
}

ExperimentOptions PointOptions(AlgorithmType algo, Arm arm) {
  ExperimentOptions opt = MacroDefaults(algo, 32);
  opt.max_test_documents = 150;
  opt.env.physical.loss_rate = 0.05;
  opt.cempar.reliable_transport = true;
  opt.env.observe.metrics = arm != Arm::kOff;
  opt.env.observe.tracing = arm != Arm::kOff;
  opt.env.observe.cost_ledger = arm == Arm::kLedger;
  opt.env.observe.profiling = arm == Arm::kLedger;
  return opt;
}

Result<VectorizedCorpus> SmokeCorpus() {
  CorpusOptions copt;
  copt.num_users = 10;
  copt.min_docs_per_user = 30;
  copt.max_docs_per_user = 40;
  copt.num_tags = 5;
  copt.vocabulary_size = 1000;
  copt.seed = 4242;
  return MakeVectorizedCorpus(copt);
}

int RunSmoke() {
  std::printf("=== OBS1 smoke: traced experiments for CI ===\n");
  Result<VectorizedCorpus> corpus = SmokeCorpus();
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    return 1;
  }

  std::error_code ec;
  std::filesystem::create_directories("bench_results/observe", ec);

  // CEMPaR: full stack, all four artifact kinds.
  ExperimentOptions opt;
  opt.algorithm = AlgorithmType::kCempar;
  opt.env.num_peers = 10;
  opt.distribution.cls = ClassDistribution::kByUser;
  opt.max_test_documents = 40;
  opt.env.physical.loss_rate = 0.1;
  opt.cempar.reliable_transport = true;
  opt.env.observe.metrics = true;
  opt.env.observe.tracing = true;
  opt.env.observe.cost_ledger = true;
  opt.env.observe.profiling = true;
  opt.trace_path = "bench_results/observe/trace.json";
  opt.metrics_path = "bench_results/observe/metrics.json";
  opt.report_path = "bench_results/observe/report.json";
  opt.profile_path = "bench_results/observe/flame_cempar.txt";

  Result<ExperimentResult> r = RunExperiment(corpus.value(), opt);
  if (!r.ok()) {
    std::fprintf(stderr, "experiment: %s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("cempar macro_f1=%.4f metrics=%zu failed=%zu "
              "train_kernel_evals=%llu\n",
              r->metrics.macro_f1, r->observability.entries.size(),
              r->failed_predictions,
              static_cast<unsigned long long>(r->train_cost.kernel_evals));

  // PACE: full stack, its own report + flamegraph.
  ExperimentOptions popt = opt;
  popt.algorithm = AlgorithmType::kPace;
  popt.cempar = CemparOptions{};
  popt.trace_path.clear();
  popt.metrics_path.clear();
  popt.report_path = "bench_results/observe/report_pace.json";
  popt.profile_path = "bench_results/observe/flame_pace.txt";
  Result<ExperimentResult> p = RunExperiment(corpus.value(), popt);
  if (!p.ok()) {
    std::fprintf(stderr, "pace experiment: %s\n",
                 p.status().ToString().c_str());
    return 1;
  }
  std::printf("pace macro_f1=%.4f train_kmeans_evals=%llu\n",
              p->metrics.macro_f1,
              static_cast<unsigned long long>(
                  p->train_cost.kmeans_distance_evals));
  std::printf("[artifacts written to bench_results/observe/]\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return RunSmoke();

  std::printf("=== OBS1: observability overhead (off / on / ledger) ===\n\n");
  const VectorizedCorpus& corpus = SharedCorpus(/*num_users=*/64,
                                                /*num_tags=*/8);

  CsvWriter csv({"algorithm", "observability", "macro_f1", "train_messages",
                 "train_bytes", "predict_messages", "predict_bytes",
                 "retransmits", "wall_seconds", "metric_families"});
  std::printf("%-8s %-6s %8s %10s %10s %10s %9s %8s\n", "algo", "obs",
              "macroF1", "trainMsgs", "predMsgs", "retx", "wall(s)",
              "metrics");

  int behavior_violations = 0;
  for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
    double wall_off = 0.0;
    uint64_t msgs_off = 0, bytes_off = 0;
    double f1_off = 0.0;
    for (Arm arm : {Arm::kOff, Arm::kObserve, Arm::kLedger}) {
      Result<ExperimentResult> r =
          RunExperiment(corpus, PointOptions(algo, arm));
      if (!r.ok()) {
        std::fprintf(stderr, "point failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      if (arm == Arm::kOff) {
        wall_off = r->wall_seconds;
        msgs_off = r->train_messages + r->predict_messages;
        bytes_off = r->train_bytes + r->predict_bytes;
        f1_off = r->metrics.macro_f1;
      } else {
        // Behavior neutrality is a hard requirement, not a wish: every arm
        // must produce identical traffic and quality.
        if (r->train_messages + r->predict_messages != msgs_off ||
            r->train_bytes + r->predict_bytes != bytes_off ||
            r->metrics.macro_f1 != f1_off) {
          std::fprintf(stderr,
                       "BEHAVIOR VIOLATION: %s arm '%s' changed the run\n",
                       r->algorithm.c_str(), ArmName(arm));
          ++behavior_violations;
        }
      }
      std::printf("%-8s %-6s %8.4f %10llu %10llu %10llu %9.2f %8zu\n",
                  r->algorithm.c_str(), ArmName(arm), r->metrics.macro_f1,
                  static_cast<unsigned long long>(r->train_messages),
                  static_cast<unsigned long long>(r->predict_messages),
                  static_cast<unsigned long long>(r->retransmits),
                  r->wall_seconds, r->observability.entries.size());
      if (arm != Arm::kOff && wall_off > 0.0) {
        std::printf("  -> overhead %+.1f%% (advisory: one run per arm, "
                    "within run-to-run noise)\n",
                    100.0 * (r->wall_seconds - wall_off) / wall_off);
      }
      Status s = csv.AddRow(
          {r->algorithm, ArmName(arm), std::to_string(r->metrics.macro_f1),
           std::to_string(r->train_messages), std::to_string(r->train_bytes),
           std::to_string(r->predict_messages),
           std::to_string(r->predict_bytes), std::to_string(r->retransmits),
           std::to_string(r->wall_seconds),
           std::to_string(r->observability.entries.size())});
      if (!s.ok()) {
        std::fprintf(stderr, "csv: %s\n", s.ToString().c_str());
        return 1;
      }
    }
  }

  WriteResults(csv, "observe.csv");
  return behavior_violations == 0 ? 0 : 1;
}
