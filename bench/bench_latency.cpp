// Interactive responsiveness — the demo lets the audience "interact with
// the system to assign or refine the tags" (Sec. 3), so time-to-answer for
// a Suggest/AutoTag request matters. This bench measures the *simulated*
// latency distribution of predictions (request issue → answer) for each
// algorithm, at two network scales.
//
// Percentiles come from the same per-request tagging-latency histogram the
// overload SLO harness quotes (TaggingLatencyHistogram), so LAT and OVER1
// numbers are directly comparable.
//
// Expected shape: PACE answers locally (≈0 network latency); CEMPaR pays
// one DHT resolution (first query per requester) then cached
// request/response round-trips; centralized pays exactly one RTT to the
// coordinator. Cold (first query, cache misses) vs warm separates the
// lookup cost.

#include <cstdio>

#include "bench/bench_util.h"
#include "p2pdmt/loadgen.h"

using namespace p2pdt_bench;

namespace {

struct LatencyStats {
  double p50 = 0, p95 = 0, p99 = 0, max = 0;
};

}  // namespace

int main() {
  std::printf("=== prediction latency (simulated seconds) ===\n\n");
  const VectorizedCorpus& corpus = SharedCorpus(64, 12);
  CorpusSplit split = SplitCorpus(corpus, kTrainFraction, 21);
  CsvWriter csv({"algorithm", "peers", "phase", "p50_ms", "p95_ms", "p99_ms",
                 "max_ms"});

  for (std::size_t peers : {64u, 128u}) {
    std::printf("-- %zu peers --\n", peers);
    std::printf("%-12s %-6s %10s %10s %10s %10s\n", "algorithm", "phase",
                "p50(ms)", "p95(ms)", "p99(ms)", "max(ms)");
    for (AlgorithmType algo :
         {AlgorithmType::kCempar, AlgorithmType::kPace,
          AlgorithmType::kCentralized}) {
      ExperimentOptions opt = MacroDefaults(algo, peers);
      auto env = std::move(Environment::Create(opt.env)).value();
      auto classifier = std::move(MakeClassifier(*env, opt)).value();
      auto peer_data =
          std::move(DistributeData(split.train, peers, opt.distribution,
                                   &split.train_user))
              .value();
      if (!classifier->Setup(std::move(peer_data),
                             corpus.dataset.num_tags())
               .ok()) {
        continue;
      }
      bool trained = false;
      classifier->Train([&](Status) { trained = true; });
      env->RunUntilFlag(trained, 3600);

      // Cold phase: every requester's first query (lookup-heavy for
      // CEMPaR). Warm phase: repeat queries from the same requesters.
      // Each phase observes into its own tagging-latency histogram — the
      // exact instrument the SLO harness quantiles.
      Rng rng(500 + peers);
      auto measure = [&](std::size_t count, bool reuse_requester) {
        MetricsRegistry metrics;
        Histogram& hist =
            TaggingLatencyHistogram(metrics, classifier->name());
        NodeId fixed = rng.NextU64(peers);
        for (std::size_t i = 0; i < count; ++i) {
          const auto& ex = split.test[i % split.test.size()];
          NodeId requester = reuse_requester ? fixed : rng.NextU64(peers);
          double issued = env->sim().Now();
          bool done = false;
          classifier->Predict(requester, ex.x, [&](P2PPrediction) {
            done = true;
          });
          // Step event-by-event so Now() stops exactly at the answer
          // (RunUntilFlag's coarse slices would quantize latencies).
          while (!done && env->sim().Step()) {
          }
          hist.Observe(env->sim().Now() - issued);
        }
        LatencyStats out;
        out.p50 = hist.Quantile(0.5) * 1e3;
        out.p95 = hist.Quantile(0.95) * 1e3;
        out.p99 = hist.Quantile(0.99) * 1e3;
        out.max = hist.max() * 1e3;
        return out;
      };

      LatencyStats cold = measure(60, /*reuse_requester=*/false);
      LatencyStats warm = measure(60, /*reuse_requester=*/true);
      std::printf("%-12s %-6s %10.1f %10.1f %10.1f %10.1f\n",
                  classifier->name().c_str(), "cold", cold.p50, cold.p95,
                  cold.p99, cold.max);
      std::printf("%-12s %-6s %10.1f %10.1f %10.1f %10.1f\n",
                  classifier->name().c_str(), "warm", warm.p50, warm.p95,
                  warm.p99, warm.max);
      csv.AddRow({classifier->name(), std::to_string(peers), "cold",
                  std::to_string(cold.p50), std::to_string(cold.p95),
                  std::to_string(cold.p99), std::to_string(cold.max)});
      csv.AddRow({classifier->name(), std::to_string(peers), "warm",
                  std::to_string(warm.p50), std::to_string(warm.p95),
                  std::to_string(warm.p99), std::to_string(warm.max)});
    }
    std::printf("\n");
  }
  WriteResults(csv, "latency.csv");
  return 0;
}
