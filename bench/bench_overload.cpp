// OVER1 — overload robustness: replay Zipf-popularity tagging sessions
// against the trained protocols, fire a scripted flash crowd (burst
// multiplier concentrated on a hot document set), and compare the
// undefended arm (finite serving capacity, no protection: queues grow
// without bound and latency blows the SLO) against the defended arm
// (admission control + typed overload rejects with retry-after, versioned
// prediction caching, CEMPaR request batching).
//
// Expected shape: with no burst both arms stay healthy. At the flash crowd
// the undefended arm's p95 tagging latency shoots past the SLO (or its
// goodput collapses outright); the defended arm sheds the excess early,
// serves the hot set from cache, and sustains >= 2x the undefended
// goodput-within-SLO. Disarmed rows (load generator off) carry per-answer
// fingerprints that must match between the two arm configurations — the
// bit-identity witness that idle overload machinery changes no prediction.
//
// `--smoke` runs a small grid and writes the same CSV schema for CI
// (tools/check_csv.py).

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "p2pdmt/overload.h"

using namespace p2pdt_bench;

namespace {

/// Steady-state capacity headroom: capacity = headroom × offered. Well
/// above 1 the steady arm is healthy (service time is a small fraction of
/// the SLO, so off-burst requests land within it even in the undefended
/// arm); the flash multiplier then drives offered past capacity and only
/// the defended arm keeps its goodput.
constexpr double kCapacityHeadroom = 4.0;

/// Applies one arm's configuration: serving capacity always on (finite
/// machines are the physical reality both arms share); the defended arm
/// adds admission control + load shedding, the prediction cache, CEMPaR
/// request batching and the reliable transport's typed overload path.
void ConfigureArm(OverloadExperimentOptions& opt, bool defended,
                  double arrival_rate) {
  const double sessions = static_cast<double>(
      std::max<std::size_t>(opt.loadgen.sessions, 1));
  const double peers =
      static_cast<double>(std::max<std::size_t>(opt.env.num_peers, 1));
  const double per_session_rate = arrival_rate / sessions;
  const double sessions_per_peer = std::max(1.0, sessions / peers);
  // PACE serves predictions at the requester itself, so its budget is
  // per session.
  const double pace_rate =
      kCapacityHeadroom * per_session_rate * sessions_per_peer;
  // CEMPaR concentrates requests on the documents' home super-peers; Zipf
  // popularity puts most of the load on a handful of owners, so budget as
  // if ~4 of them carry the aggregate rate.
  const double cempar_rate = kCapacityHeadroom * arrival_rate / 4.0;

  auto configure = [&](ServeOptions& serve, double rate) {
    serve.enabled = true;
    serve.service_rate = rate;
    serve.admission_control = defended;
    serve.max_wait = 0.5 * opt.loadgen.slo_latency;
    serve.retry_after = 0.25 * opt.loadgen.slo_latency;
  };
  configure(opt.pace.serve, pace_rate);
  configure(opt.cempar.serve, cempar_rate);

  opt.pace.predict_cache.enabled = defended;
  opt.cempar.predict_cache.enabled = defended;
  opt.cempar.batch_predictions = defended;
  if (defended) {
    opt.cempar.reliable_transport = true;  // typed overload NACK path
  }
}

/// The flash crowd, placed inside the expected steady-state span of the
/// replay: mean session length over the per-session rate.
FlashCrowdBurst FlashBurst(const LoadGenOptions& loadgen, double rate,
                           double multiplier) {
  const double sessions =
      static_cast<double>(std::max<std::size_t>(loadgen.sessions, 1));
  const double mean_docs =
      0.5 * static_cast<double>(loadgen.min_docs + loadgen.max_docs);
  const double span = mean_docs / (rate / sessions);
  FlashCrowdBurst b;
  b.start = 0.3 * span;
  b.duration = 0.25 * span;
  b.rate_multiplier = multiplier;
  b.hot_fraction = 0.9;
  b.hot_docs = 8;
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t num_peers = smoke ? 24 : 64;
  OverloadExperimentOptions base;
  base.env.num_peers = num_peers;
  base.distribution.cls = ClassDistribution::kByUser;
  base.loadgen.sessions = num_peers;
  base.loadgen.slo_latency = 1.0;
  base.loadgen.max_retries = 1;
  base.loadgen.retry_backoff = 0.5;
  base.seed = 20100913;
  std::vector<double> arrival_rates;
  double burst_multiplier = 0.0;
  if (smoke) {
    std::printf("=== OVER1 smoke: flash crowd, defended vs undefended ===\n");
    // Sessions long enough that the burst catches most of each session's
    // tail (that is what builds the undefended backlog); a single aggregate
    // rate and a hard multiplier keep the separation unambiguous for CI.
    base.loadgen.min_docs = 20;
    base.loadgen.max_docs = 32;
    arrival_rates = {24.0};
    burst_multiplier = 20.0;
  } else {
    std::printf("=== OVER1: offered load x burst x arm x algorithm ===\n\n");
    base.loadgen.min_docs = 50;
    base.loadgen.max_docs = 80;
    arrival_rates = {32.0, 64.0};
    burst_multiplier = 8.0;
  }
  const VectorizedCorpus& corpus = SharedCorpus(num_peers, 6);

  CsvWriter csv;
  auto run_point = [&](AlgorithmType algo, bool defended,
                       const std::string& burst, double rate,
                       double multiplier, OverloadExperimentOptions opt) {
    const char* arm = defended ? "defended" : "undefended";
    opt.algorithm = algo;
    Result<OverloadRunStats> r = RunOverloadExperiment(corpus, opt);
    if (!r.ok()) {
      P2PDT_LOG(Warning) << AlgorithmTypeToString(algo) << " arm=" << arm
                         << " burst=" << burst << " rate=" << rate
                         << " failed: " << r.status().ToString();
      return true;
    }
    const LoadGenResult& load = r->load;
    CsvWriter::Row row;
    row.Add("algorithm", AlgorithmTypeToString(algo))
        .Add("arm", arm)
        .Add("burst", burst)
        .Add("arrival_rate", rate)
        .Add("burst_multiplier", multiplier)
        .Add("offered", load.offered)
        .Add("completed", load.completed)
        .Add("ok", load.ok)
        .Add("degraded", load.degraded)
        .Add("cached", load.cached)
        .Add("failed", load.failed)
        .Add("shed", r->requests_shed)
        .Add("retries", load.retries)
        .Add("within_slo", load.within_slo)
        .Add("goodput_within_slo", load.goodput_within_slo)
        // Sheds per request attempt (offered + retries).
        .Add("shed_rate", Ratio(r->requests_shed, load.offered + load.retries))
        // hits / (hits + misses + stale); 0 when the cache was disabled or
        // never consulted.
        .Add("cache_hit_rate",
             Ratio(r->cache_hits,
                   r->cache_hits + r->cache_misses + r->cache_stale))
        .Add("p50_s", load.p50_latency)
        .Add("p95_s", load.p95_latency)
        .Add("p99_s", load.p99_latency)
        .Add("slo_s", opt.loadgen.slo_latency)
        .Add("give_ups", r->give_ups)
        .Hex("fingerprint", load.fingerprint);
    return EmitRow(csv, row);
  };

  for (AlgorithmType algo : {AlgorithmType::kPace, AlgorithmType::kCempar}) {
    // Disarmed bit-identity pair: both arm configurations with the load
    // generator off. Their fingerprints must match — idle overload
    // machinery changes no prediction.
    for (bool defended : {false, true}) {
      OverloadExperimentOptions opt = base;
      opt.loadgen.enabled = false;
      ConfigureArm(opt, defended, arrival_rates.front());
      if (!run_point(algo, defended, "disarmed", 0.0, 1.0, opt)) return 1;
    }
    for (double rate : arrival_rates) {
      for (const std::string burst : {"none", "flash"}) {
        for (bool defended : {false, true}) {
          OverloadExperimentOptions opt = base;
          opt.loadgen.enabled = true;
          opt.loadgen.arrival_rate = rate;
          opt.loadgen.bursts.clear();
          double multiplier = 1.0;
          if (burst == "flash") {
            opt.loadgen.bursts.push_back(
                FlashBurst(opt.loadgen, rate, burst_multiplier));
            multiplier = burst_multiplier;
          }
          ConfigureArm(opt, defended, rate);
          if (!run_point(algo, defended, burst, rate, multiplier, opt)) {
            return 1;
          }
        }
      }
    }
  }
  if (csv.num_rows() == 0) {
    std::fprintf(stderr, "sweep produced no rows\n");
    return 1;
  }
  WriteResults(csv, "overload.csv");
  return 0;
}
