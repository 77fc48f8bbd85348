// DEMO2 — "modifying the network parameters, such as the network size"
// (paper Sec. 3): accuracy and communication cost as the number of peers
// grows from 16 to 512 on the same corpus, then the scale tier: 1k / 10k /
// 100k peers on the flyweight + binary-heap event queue engine, with
// wall-clock and peak-RSS recorded per row.
//
// Expected shape: accuracy roughly flat for CEMPaR / Centralized (the same
// pooled knowledge, just spread thinner per peer); PACE degrades slightly
// at scale (top-k of ever-more ever-smaller models); LocalOnly collapses as
// per-peer data shrinks. CEMPaR train bytes grow ~O(N); PACE grows ~O(N²).
//
// `--smoke` runs only the 10k-peer tier and enforces a peak-RSS ceiling —
// CI's cheap guard that the flyweight path has not regressed to per-peer
// dataset copies.

#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "common/memory.h"

using namespace p2pdt_bench;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
// Smoke ceiling for the 10k-peer tier. The shared corpus plus 10k flyweight
// peers measure well under 1 GiB; materialized per-peer copies blow far
// past this.
constexpr double kSmokeRssCeilingMib = 4096.0;

/// Scale-tier settings: windowed dissemination, sampled evaluation. Each
/// knob is bit-identical-by-construction or measurement-only, so rows stay
/// comparable with the legacy tier.
ExperimentOptions ScaleDefaults(AlgorithmType algorithm,
                                std::size_t num_peers) {
  ExperimentOptions opt = MacroDefaults(algorithm, num_peers);
  opt.max_eval_peers = 64;
  opt.max_test_documents = 150;
  opt.pace.max_concurrent_broadcasts = 64;
  return opt;
}

struct RowStats {
  double wall_sec = 0.0;
  double peak_rss_mib = 0.0;
};

void PrintAndRecord(CsvWriter& csv, const ExperimentResult& r,
                    std::size_t peers, const RowStats& stats) {
  std::printf("%-12s %7zu %8.4f %12.2f %14.1f %12.2f %10.1f %10.1f\n",
              r.algorithm.c_str(), peers, r.metrics.micro_f1,
              r.train_bytes / kMiB, r.train_bytes_per_peer() / 1024.0,
              r.predict_bytes / kMiB, stats.wall_sec, stats.peak_rss_mib);
  csv.AddRow({r.algorithm, std::to_string(peers),
              std::to_string(r.metrics.micro_f1),
              std::to_string(r.train_bytes / kMiB),
              std::to_string(r.train_bytes_per_peer() / 1024.0),
              std::to_string(r.predict_bytes / kMiB),
              std::to_string(r.failed_predictions),
              std::to_string(stats.wall_sec),
              std::to_string(stats.peak_rss_mib)});
}

bool RunOne(CsvWriter& csv, const VectorizedCorpus& corpus,
            const ExperimentOptions& opt, std::size_t peers,
            RowStats* out_stats = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  Result<ExperimentResult> r = RunExperiment(corpus, opt);
  const auto t1 = std::chrono::steady_clock::now();
  if (!r.ok()) {
    std::fprintf(stderr, "%s/%zu failed: %s\n",
                 AlgorithmTypeToString(opt.algorithm), peers,
                 r.status().ToString().c_str());
    return false;
  }
  RowStats stats;
  stats.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  stats.peak_rss_mib = static_cast<double>(PeakRssBytes()) / kMiB;
  PrintAndRecord(csv, r.value(), peers, stats);
  if (out_stats != nullptr) *out_stats = stats;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf("=== DEMO2: scalability with network size ===\n\n");
  const VectorizedCorpus& corpus = SharedCorpus(/*num_users=*/512,
                                                /*num_tags=*/16);
  CsvWriter csv({"algorithm", "peers", "micro_f1", "train_MiB",
                 "train_KiB_per_peer", "predict_MiB", "failed",
                 "wall_clock_sec", "peak_rss_mib"});
  std::printf("%-12s %7s %8s %12s %14s %12s %10s %10s\n", "algorithm",
              "peers", "microF1", "train(MiB)", "KiB/peer", "pred(MiB)",
              "wall(s)", "rss(MiB)");

  if (smoke) {
    // CI guard: one 10k-peer run per protocol under the scale knobs, then
    // assert the process footprint. Peak RSS is process-wide and monotone,
    // so the ceiling bounds the sum of both runs plus the corpus.
    bool ok = true;
    for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
      ok = RunOne(csv, corpus, ScaleDefaults(algo, 10240), 10240) && ok;
    }
    const double rss_mib = static_cast<double>(PeakRssBytes()) / kMiB;
    WriteResults(csv, "demo2_scalability_smoke.csv");
    if (!ok) return 1;
    if (rss_mib > kSmokeRssCeilingMib) {
      std::fprintf(stderr,
                   "SMOKE FAIL: peak RSS %.1f MiB exceeds ceiling %.1f MiB\n",
                   rss_mib, kSmokeRssCeilingMib);
      return 1;
    }
    std::printf("\nSMOKE PASS: peak RSS %.1f MiB <= %.1f MiB ceiling\n",
                rss_mib, kSmokeRssCeilingMib);
    return 0;
  }

  // Legacy tier: identical options to the pre-refactor bench — these rows'
  // quality and traffic columns are the bit-compatibility reference.
  for (std::size_t peers : {16u, 32u, 64u, 128u, 256u, 512u}) {
    for (AlgorithmType algo :
         {AlgorithmType::kCempar, AlgorithmType::kPace,
          AlgorithmType::kCentralized, AlgorithmType::kLocalOnly}) {
      RunOne(csv, corpus, MacroDefaults(algo, peers), peers);
    }
    std::printf("\n");
  }

  // Scale tier: the engine's headline — 1k/10k/100k peers per protocol.
  for (std::size_t peers : {1024u, 10240u, 102400u}) {
    for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
      RunOne(csv, corpus, ScaleDefaults(algo, peers), peers);
    }
    std::printf("\n");
  }

  WriteResults(csv, "demo2_scalability.csv");
  return 0;
}
