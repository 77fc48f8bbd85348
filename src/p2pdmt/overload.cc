#include "p2pdmt/overload.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace p2pdt {

namespace {

struct Fnv64 {
  uint64_t state = 0xcbf29ce484222325ull;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state ^= (v >> (8 * i)) & 0xFF;
      state *= 0x100000001b3ull;
    }
  }
  void MixDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
};

}  // namespace

Result<OverloadRunStats> RunOverloadExperiment(
    const VectorizedCorpus& corpus, const OverloadExperimentOptions& options) {
  CorpusSplit split =
      SplitCorpus(corpus, options.train_fraction, options.seed);
  if (split.train.size() == 0 || split.test.size() == 0) {
    return Status::InvalidArgument(
        "overload harness needs non-empty train and test splits");
  }

  EnvironmentOptions env_options = options.env;
  env_options.observe.metrics = true;  // the SLO histogram lives here
  Result<std::unique_ptr<Environment>> env_result =
      Environment::Create(env_options);
  if (!env_result.ok()) return env_result.status();
  Environment& env = *env_result.value();
  const std::size_t num_peers = env_options.num_peers;

  ExperimentOptions algo_options;
  algo_options.algorithm = options.algorithm;
  algo_options.cempar = options.cempar;
  algo_options.pace = options.pace;
  algo_options.sim_shards = options.sim_shards;
  Result<std::unique_ptr<P2PClassifier>> algo_result =
      MakeClassifier(env, algo_options);
  if (!algo_result.ok()) return algo_result.status();
  P2PClassifier& algo = *algo_result.value();

  auto shared = std::make_shared<const MultiLabelDataset>(split.train);
  Result<std::vector<std::vector<uint32_t>>> indices = DistributeIndices(
      *shared, num_peers, options.distribution, &split.train_user);
  if (!indices.ok()) return indices.status();
  std::vector<DatasetShard> shards;
  shards.reserve(num_peers);
  for (std::size_t p = 0; p < num_peers; ++p) {
    shards.emplace_back(shared, std::move((*indices)[p]));
  }
  P2PDT_RETURN_IF_ERROR(
      algo.SetupShards(std::move(shards), corpus.dataset.num_tags()));

  env.StartDynamics();
  OverloadRunStats stats;
  bool train_done = false;
  Status train_status = Status::OK();
  const SimTime train_start = env.sim().Now();
  algo.Train([&](Status s) {
    train_status = s;
    train_done = true;
    stats.train_sim_seconds = env.sim().Now() - train_start;
  });
  env.RunUntilFlag(train_done, options.max_train_sim_seconds);
  if (!train_done) {
    return Status::Internal("overload harness: training did not quiesce");
  }
  P2PDT_RETURN_IF_ERROR(train_status);

  // Request catalog in popularity order: test documents by index. The
  // split must stay alive until the generator finishes — docs are views.
  std::vector<const SparseVector*> docs;
  const std::size_t catalog =
      options.max_docs == 0
          ? split.test.size()
          : std::min(options.max_docs, split.test.size());
  docs.reserve(catalog);
  for (std::size_t i = 0; i < catalog; ++i) docs.push_back(&split.test[i].x);
  std::vector<NodeId> requesters(num_peers);
  for (std::size_t p = 0; p < num_peers; ++p) requesters[p] = p;

  if (options.loadgen.enabled) {
    SessionLoadGenerator gen(env.sim(), algo, options.loadgen, docs,
                             requesters, *env.metrics());
    bool load_done = false;
    gen.Run([&](const LoadGenResult& r) {
      stats.load = r;
      load_done = true;
    });
    env.RunUntilFlag(load_done, options.max_load_sim_seconds);
    if (!load_done) {
      return Status::Internal("overload harness: load did not quiesce");
    }
  } else {
    // Disarmed bit-identity witness: a short sequential prediction pass
    // fingerprinting only the answers. Idle overload machinery (queues
    // with no contention, an empty cache) must not change a single bit.
    Fnv64 digest;
    const std::size_t n = std::min<std::size_t>(40, docs.size());
    for (std::size_t i = 0; i < n; ++i) {
      bool done = false;
      P2PPrediction pred;
      algo.Predict(requesters[i % requesters.size()], *docs[i],
                   [&](P2PPrediction p) {
                     pred = std::move(p);
                     done = true;
                   });
      env.RunUntilFlag(done, options.max_load_sim_seconds);
      if (!done) {
        return Status::Internal("overload harness: eval did not quiesce");
      }
      digest.Mix(pred.success ? 1 : 0);
      digest.Mix(pred.tags.size());
      for (TagId t : pred.tags) digest.Mix(static_cast<uint64_t>(t));
      for (double s : pred.scores) digest.MixDouble(s);
      ++stats.load.offered;
      ++stats.load.completed;
      if (pred.success) {
        ++stats.load.ok;
      } else {
        ++stats.load.failed;
      }
    }
    stats.load.fingerprint = digest.state;
  }

  const PeerRuntime* runtime = algo.runtime();
  if (const ServeQueueSet* serve = runtime ? runtime->serve_queue() : nullptr) {
    stats.requests_shed = serve->shed();
  }
  if (const PredictCacheSet* cache =
          runtime ? runtime->predict_cache() : nullptr) {
    stats.cache_hits = cache->hits();
    stats.cache_misses = cache->misses();
    stats.cache_stale = cache->stale();
  }
  const NetworkStats& net_stats = env.net().stats();
  stats.give_ups = net_stats.give_ups();
  stats.overload_drops = net_stats.dropped(DropReason::kOverloadShed);
  return stats;
}

namespace {

OverloadRow MakeRow(const OverloadRunStats& s, const std::string& algorithm,
                    const std::string& arm, const std::string& burst,
                    double arrival_rate, double burst_multiplier,
                    double slo_s) {
  OverloadRow row;
  row.algorithm = algorithm;
  row.arm = arm;
  row.burst = burst;
  row.arrival_rate = arrival_rate;
  row.burst_multiplier = burst_multiplier;
  row.offered = s.load.offered;
  row.completed = s.load.completed;
  row.ok = s.load.ok;
  row.degraded = s.load.degraded;
  row.cached = s.load.cached;
  row.failed = s.load.failed;
  row.shed = s.requests_shed;
  row.retries = s.load.retries;
  row.within_slo = s.load.within_slo;
  row.goodput_within_slo = s.load.goodput_within_slo;
  const uint64_t attempts = s.load.offered + s.load.retries;
  row.shed_rate = attempts == 0 ? 0.0
                                : static_cast<double>(s.requests_shed) /
                                      static_cast<double>(attempts);
  const uint64_t lookups = s.cache_hits + s.cache_misses + s.cache_stale;
  row.cache_hit_rate = lookups == 0 ? 0.0
                                    : static_cast<double>(s.cache_hits) /
                                          static_cast<double>(lookups);
  row.p50_s = s.load.p50_latency;
  row.p95_s = s.load.p95_latency;
  row.p99_s = s.load.p99_latency;
  row.slo_s = slo_s;
  row.give_ups = s.give_ups;
  row.fingerprint = s.load.fingerprint;
  return row;
}

/// Applies one arm's configuration: serving capacity always on (finite
/// machines are the physical reality both arms share); the defended arm
/// adds admission control + load shedding, the prediction cache, CEMPaR
/// request batching and the reliable transport's typed overload path.
void ConfigureArm(OverloadExperimentOptions& opt, const std::string& arm,
                  const OverloadSweepOptions& sweep, double arrival_rate) {
  const double sessions = static_cast<double>(
      std::max<std::size_t>(opt.loadgen.sessions, 1));
  const double peers =
      static_cast<double>(std::max<std::size_t>(opt.env.num_peers, 1));
  const double per_session_rate = arrival_rate / sessions;
  const double sessions_per_peer = std::max(1.0, sessions / peers);

  double pace_rate = sweep.pace_service_rate;
  if (pace_rate <= 0.0) {
    pace_rate =
        sweep.capacity_headroom * per_session_rate * sessions_per_peer;
  }
  double cempar_rate = sweep.cempar_service_rate;
  if (cempar_rate <= 0.0) {
    // CEMPaR concentrates requests on the documents' home super-peers;
    // Zipf popularity puts most of the load on a handful of owners, so
    // budget as if ~4 of them carry the aggregate rate.
    cempar_rate = sweep.capacity_headroom * arrival_rate / 4.0;
  }

  const bool defended = arm == "defended";
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

}  // namespace

Result<std::vector<OverloadRow>> RunOverloadSweep(
    const VectorizedCorpus& corpus, const OverloadSweepOptions& options) {
  std::vector<OverloadRow> rows;
  const std::vector<std::string> arms = {"undefended", "defended"};
  const double first_rate =
      options.arrival_rates.empty() ? 40.0 : options.arrival_rates.front();

  for (AlgorithmType algorithm : options.algorithms) {
    const std::string algo_name = AlgorithmTypeToString(algorithm);

    // Disarmed bit-identity pair: both arm configurations with the load
    // generator off. The checker asserts their fingerprints match — idle
    // overload machinery changes no prediction.
    for (const std::string& arm : arms) {
      OverloadExperimentOptions opt = options.base;
      opt.algorithm = algorithm;
      opt.loadgen.enabled = false;
      ConfigureArm(opt, arm, options, first_rate);
      Result<OverloadRunStats> r = RunOverloadExperiment(corpus, opt);
      if (!r.ok()) {
        P2PDT_LOG(Warning) << algo_name << " disarmed arm=" << arm
                           << " failed: " << r.status().ToString();
        continue;
      }
      rows.push_back(MakeRow(*r, algo_name, arm, "disarmed", 0.0, 1.0,
                             opt.loadgen.slo_latency));
      if (options.on_point) options.on_point(rows.back());
    }

    std::vector<std::string> bursts;
    if (options.none_burst) bursts.push_back("none");
    bursts.push_back("flash");

    for (double rate : options.arrival_rates) {
      for (const std::string& burst : bursts) {
        for (const std::string& arm : arms) {
          OverloadExperimentOptions opt = options.base;
          opt.algorithm = algorithm;
          opt.loadgen.enabled = true;
          opt.loadgen.arrival_rate = rate;
          opt.loadgen.bursts.clear();
          double mult = 1.0;
          if (burst == "flash") {
            // Burst placed inside the expected steady-state span of the
            // replay: mean session length over the per-session rate.
            const double sessions = static_cast<double>(
                std::max<std::size_t>(opt.loadgen.sessions, 1));
            const double mean_docs =
                0.5 * static_cast<double>(opt.loadgen.min_docs +
                                          opt.loadgen.max_docs);
            const double span = mean_docs / (rate / sessions);
            FlashCrowdBurst b;
            b.start = 0.3 * span;
            b.duration = 0.25 * span;
            b.rate_multiplier = options.burst_multiplier;
            b.hot_fraction = 0.9;
            b.hot_docs = 8;
            opt.loadgen.bursts.push_back(b);
            mult = options.burst_multiplier;
          }
          ConfigureArm(opt, arm, options, rate);
          Result<OverloadRunStats> r = RunOverloadExperiment(corpus, opt);
          if (!r.ok()) {
            P2PDT_LOG(Warning)
                << algo_name << " arm=" << arm << " burst=" << burst
                << " rate=" << rate
                << " failed: " << r.status().ToString();
            continue;
          }
          rows.push_back(MakeRow(*r, algo_name, arm, burst, rate, mult,
                                 opt.loadgen.slo_latency));
          if (options.on_point) options.on_point(rows.back());
        }
      }
    }
  }
  return rows;
}

CsvWriter OverloadCsv(const std::vector<OverloadRow>& rows) {
  CsvWriter csv({"algorithm", "arm", "burst", "arrival_rate",
                 "burst_multiplier", "offered", "completed", "ok", "degraded",
                 "cached", "failed", "shed", "retries", "within_slo",
                 "goodput_within_slo", "shed_rate", "cache_hit_rate", "p50_s",
                 "p95_s", "p99_s", "slo_s", "give_ups", "fingerprint"});
  char buf[32];
  auto fmt = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  auto hex = [&buf](uint64_t v) {
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  for (const OverloadRow& row : rows) {
    csv.AddRow({row.algorithm, row.arm, row.burst, fmt(row.arrival_rate),
                fmt(row.burst_multiplier), std::to_string(row.offered),
                std::to_string(row.completed), std::to_string(row.ok),
                std::to_string(row.degraded), std::to_string(row.cached),
                std::to_string(row.failed), std::to_string(row.shed),
                std::to_string(row.retries), std::to_string(row.within_slo),
                fmt(row.goodput_within_slo), fmt(row.shed_rate),
                fmt(row.cache_hit_rate), fmt(row.p50_s), fmt(row.p95_s),
                fmt(row.p99_s), fmt(row.slo_s), std::to_string(row.give_ups),
                hex(row.fingerprint)});
  }
  return csv;
}

}  // namespace p2pdt
