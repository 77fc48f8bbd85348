// PERF1 — the cost-model record: run CEMPaR and PACE at the 1k and 10k
// peer tiers with the cost ledger on and persist exact ledger op counts,
// wire bytes, and (advisory) wall-clock per tier as machine-readable JSON.
// The output is the source of the committed BENCH_perf.json snapshot; the
// deterministic metrics double as a coarse end-to-end regression gate via
// tools/bench_diff.py.
//
// `--smoke` drops the 10k tier so CI finishes quickly.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "common/stopwatch.h"

using namespace p2pdt_bench;

namespace {

/// Scale-tier settings mirroring bench_scalability's ScaleDefaults:
/// sampled evaluation, windowed dissemination.
ExperimentOptions TierOptions(AlgorithmType algorithm,
                              std::size_t num_peers) {
  ExperimentOptions opt = MacroDefaults(algorithm, num_peers);
  opt.max_eval_peers = 64;
  opt.max_test_documents = 100;
  opt.pace.max_concurrent_broadcasts = 64;
  opt.env.observe.metrics = true;
  opt.env.observe.cost_ledger = true;
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf("=== PERF1: ledger ops, wire bytes, wall-clock per tier ===\n");
  const VectorizedCorpus& corpus = SharedCorpus(/*num_users=*/64,
                                                /*num_tags=*/8);
  BenchEmitter emitter("bench_perf");

  for (std::size_t peers : {1024u, 10240u}) {
    if (smoke && peers > 1024u) continue;
    for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
      ExperimentOptions opt = TierOptions(algo, peers);
      Stopwatch wall;
      Result<ExperimentResult> r = RunExperiment(corpus, opt);
      if (!r.ok()) {
        std::fprintf(stderr, "%s/%zu failed: %s\n",
                     AlgorithmTypeToString(algo), peers,
                     r.status().ToString().c_str());
        return 1;
      }
      std::string point =
          r->algorithm + "_p" + std::to_string(peers);
      RecordExperiment(emitter, point, *r);
      std::printf(
          "%-8s %6zu peers  micro_f1=%.4f  wire=%llu B  wall=%.1fs\n",
          r->algorithm.c_str(), peers, r->metrics.micro_f1,
          static_cast<unsigned long long>(r->train_bytes + r->predict_bytes),
          wall.ElapsedSeconds());
    }
  }

  emitter.Write("perf/bench_perf.json");
  return 0;
}
