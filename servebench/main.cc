// servebench — the served tagging path of P2PDocTagger, end to end and per
// layer.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1 [--window W]
//
// One pass builds the corpus (GenerateCorpus + VectorizeCorpus, repeated to
// take a median), trains with BuildTrainedService, starts ServiceDaemon on
// loopback configured as p2pdtd configures it, and drives it from this
// thread over kConnections connections with a fixed request list
// precomputed from the seed. Every answer is validated. The last line of
// stdout is the JSON result; the exit code is 0 only when every check held.
//
// --trace 0 runs one untraced pass and reports the end-to-end metrics.
// --trace 1 runs an untraced pass, then a traced one (spans around each
// call into a layer, the cost ledger on, a timing wrapper around the
// dispatch closure), reports the per-layer metrics of the traced pass and
// the overhead tracing added to each end-to-end time, checks both passes
// gave bit-identical answers, and writes the spans to
// .bench_out/<workload>.spans.jsonl.
//
// README.md lists the workloads, what each metric should move, and the
// program defects the benchmark routes around.

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/build_info.h"
#include "common/cost_ledger.h"
#include "common/logging.h"
#include "common/memory.h"
#include "common/rng.h"
#include "corpus/generator.h"
#include "corpus/vectorize.h"
#include "driver.h"
#include "ml/metrics.h"
#include "net/daemon.h"
#include "net/event_loop.h"
#include "p2pdmt/experiment.h"
#include "p2pdmt/loadgen.h"
#include "p2pdmt/service_harness.h"
#include "spans.h"
#include "text/preprocessor.h"

namespace {

using namespace p2pdt;
using servebench::Answer;
using servebench::DriverOptions;
using servebench::DriverResult;
using servebench::kConnections;
using servebench::Quantile;
using servebench::Request;
using servebench::SpanLog;

struct Workload {
  const char* name;
  AlgorithmType algorithm;
  std::size_t peers;
  bool open_loop;
  /// Zipf exponent of document popularity; 0 draws documents uniformly.
  double zipf_s;
  /// Open loop: offered requests per second. Closed loop: the saturated
  /// rate that sizes the fixed request list to last about --seconds.
  double rate;
  /// Builds of the service per pass; train_s is their median. A PACE build
  /// takes ~1.5 s (~3 s under host contention), and single builds of one
  /// pass spread by +-20% under contention, so PACE builds seven times.
  std::size_t train_repeats;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"cempar_closed", AlgorithmType::kCempar, 256, false, 1.1, 450.0, 1},
    {"pace_closed", AlgorithmType::kPace, 1024, false, 1.1, 5000.0, 7},
    {"pace_open", AlgorithmType::kPace, 1024, true, 0.0, 1250.0, 7},
};

constexpr std::size_t kWindow = 16;
constexpr std::size_t kSetupRepeats = 5;
/// tag_p99_ms is the median of the p99s of this many consecutive slices of
/// the run (by due time), so one scheduler hiccup does not set it.
constexpr std::size_t kLatencySlices = 5;
constexpr unsigned kTrainThreads = 4;
/// Latency limit on tag_p99_ms for the open-loop workload.
constexpr double kP99LimitMs = 5.0;
/// The corpus and the trained service are those of p2pdtd's default --seed;
/// the run's --seed draws only the traffic (documents, requesters, arrival
/// times), so runs differ in what is asked, not in what was learned.
constexpr uint64_t kCorpusSeed = 20100913;
constexpr uint64_t kDefaultSeed = 1;
/// Never used while the benchmark was tuned: confirm claims on it.
constexpr uint64_t kConfirmSeed = 271828;
constexpr uint64_t kDocStream = 0xD0C5;
constexpr uint64_t kScheduleStream = 0x5C4E;
constexpr uint64_t kRequesterStream = 0x9EE4;

/// p2pdtd's generator settings at 256 users and 12 tags.
CorpusOptions MakeCorpusOptions() {
  CorpusOptions options;
  options.num_users = 256;
  options.min_docs_per_user = 50;
  options.max_docs_per_user = 80;
  options.num_tags = 12;
  options.vocabulary_size = 3000;
  options.seed = kCorpusSeed;
  return options;
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::size_t window = kWindow;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

double CpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PerReq(double total, std::size_t requests) {
  return requests == 0 ? 0.0 : total / static_cast<double>(requests);
}

Histogram& Phase(MetricsRegistry& metrics, AlgorithmType algorithm,
                 const char* phase) {
  return metrics.GetHistogram(
      "phase_seconds",
      {{"classifier",
        algorithm == AlgorithmType::kCempar ? "cempar" : "pace"},
       {"phase", phase}});
}

/// Mean milliseconds per observation a histogram gained between two reads.
double MeanMsSince(const Histogram& h, uint64_t count0, double sum0) {
  const uint64_t n = h.count() - count0;
  return n == 0 ? 0.0 : (h.sum() - sum0) * 1e3 / static_cast<double>(n);
}

/// Drains and joins the daemon's loop thread on every exit path.
class DaemonThread {
 public:
  explicit DaemonThread(ServiceDaemon& daemon)
      : daemon_(daemon), thread_([&daemon] { daemon.Run(); }) {}
  ~DaemonThread() { Stop(); }
  DaemonThread(const DaemonThread&) = delete;
  DaemonThread& operator=(const DaemonThread&) = delete;

  void Stop() {
    if (!thread_.joinable()) return;
    daemon_.RequestDrain();
    thread_.join();
  }

 private:
  ServiceDaemon& daemon_;
  std::thread thread_;
};

/// What the dispatch wrapper of a traced pass records per request.
struct DispatchRecord {
  uint64_t requester;
  std::size_t nnz;
  double start;
  double end;
};

/// Everything one pass measured.
struct Pass {
  std::vector<std::string> errors;
  // Setup.
  double setup_s = 0.0, generate_s = 0.0, vectorize_s = 0.0;
  std::size_t num_docs = 0;
  // Training.
  std::vector<double> build_s;
  double train_s = 0.0, train_cpu_util = 0.0, wire_kib_per_peer = 0.0;
  uint64_t train_events = 0, train_messages = 0;
  std::array<uint64_t, NetworkStats::kNumTypes> train_bytes{};
  CostCounts train_cost;
  double local_train_s = 0.0, cascade_merge_s = 0.0;
  // Request list.
  std::size_t catalog = 0, distinct_docs = 0;
  double repeat_share = 0.0, pair_repeat_share = 0.0;
  // Serving.
  std::size_t attempted = 0, failed = 0, samples = 0;
  double rate_rps = 0.0, p50_ms = 0.0, p99_ms = 0.0, late_p99_ms = 0.0;
  double tag_sim_ms = 0.0, tag_events_per_req = 0.0,
         tag_messages_per_req = 0.0, bytes_per_req = 0.0;
  CostCounts tag_cost;
  double top_k_ms = 0.0, vote_ms = 0.0;
  double dispatch_p50_ms = 0.0, busy_ratio = 0.0, inbound_p50_ms = 0.0,
         outbound_p50_ms = 0.0;
  double micro_f1 = 0.0, macro_f1 = 0.0;
  uint64_t fingerprint = 0;
  double peak_rss_mib = 0.0;
};

/// The fixed request list of one run, a pure function of (workload, seed,
/// seconds). Request i of a closed loop travels on connection i % C; an
/// open loop draws one Poisson schedule per connection.
std::vector<Request> MakeRequests(const Workload& w, const Args& args,
                                  const std::vector<SparseVector>& catalog,
                                  std::vector<uint32_t>& doc_index) {
  Rng doc_rng(DeriveSeed(args.seed, kDocStream));
  Rng peer_rng(DeriveSeed(args.seed, kRequesterStream));
  std::optional<ZipfSampler> zipf;
  if (w.zipf_s > 0.0) zipf.emplace(catalog.size(), w.zipf_s);
  const uint64_t peers_per_conn = w.peers / kConnections;
  auto add = [&](std::vector<Request>& out, std::size_t conn, double offset) {
    const uint32_t doc = static_cast<uint32_t>(
        zipf ? zipf->Sample(doc_rng) : doc_rng.NextU64(catalog.size()));
    // Requester ids are peer ids; peer % C names the connection.
    const uint64_t peer =
        peer_rng.NextU64(peers_per_conn) * kConnections + conn;
    out.push_back({&catalog[doc], peer, offset});
    doc_index.push_back(doc);
  };
  std::vector<Request> out;
  if (!w.open_loop) {
    const std::size_t n = static_cast<std::size_t>(args.seconds * w.rate);
    for (std::size_t i = 0; i < n; ++i) add(out, i % kConnections, 0.0);
    return out;
  }
  LoadGenOptions schedule;
  schedule.sessions = kConnections;
  schedule.arrival_rate = w.rate;
  schedule.seed = DeriveSeed(args.seed, kScheduleStream);
  const std::size_t per_conn = static_cast<std::size_t>(
      w.rate / kConnections * args.seconds * 1.25 + 100);
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (double offset : LoadGenOpenLoopOffsets(schedule, c, per_conn)) {
      if (offset > args.seconds) break;
      add(out, c, offset);
    }
  }
  return out;
}

/// Joins the traced dispatch records to the client's answers per
/// connection in FIFO order, checks the join, and records request spans.
void JoinDispatch(const std::vector<Request>& requests, const DriverResult& r,
                  const std::vector<std::vector<DispatchRecord>>& dispatched,
                  SpanLog& spans, Pass& pass) {
  std::vector<std::vector<std::size_t>> sent(kConnections);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    sent[requests[i].requester % kConnections].push_back(i);
  }
  std::vector<double> dispatch_ms, inbound_ms, outbound_ms;
  double busy = 0.0;
  for (std::size_t c = 0; c < kConnections; ++c) {
    std::vector<std::size_t>& order = sent[c];
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return r.answers[a].sent < r.answers[b].sent;
                     });
    if (order.size() != dispatched[c].size()) {
      pass.errors.push_back("connection " + std::to_string(c) + ": " +
                            std::to_string(order.size()) + " sent but " +
                            std::to_string(dispatched[c].size()) +
                            " dispatched");
      continue;
    }
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t i = order[k];
      const Answer& a = r.answers[i];
      const DispatchRecord& d = dispatched[c][k];
      if (d.requester != requests[i].requester ||
          d.nnz != requests[i].doc->nnz() || d.start < a.sent ||
          a.answered < d.end) {
        pass.errors.push_back("dispatch join mismatch at request " +
                              std::to_string(i + 1));
        return;
      }
      const int64_t id = static_cast<int64_t>(i + 1);
      const int64_t root = spans.Add("tag.request", a.due, a.answered,
                                     SpanLog::kNone, id);
      spans.Add("loadgen.wait", a.due, a.sent, root, id);
      spans.Add("net.inbound", a.sent, d.start, root, id);
      spans.Add("p2pml.dispatch", d.start, d.end, root, id);
      spans.Add("net.outbound", d.end, a.answered, root, id);
      dispatch_ms.push_back((d.end - d.start) * 1e3);
      inbound_ms.push_back((d.start - a.sent) * 1e3);
      outbound_ms.push_back((a.answered - d.end) * 1e3);
      busy += d.end - d.start;
    }
  }
  pass.dispatch_p50_ms = Quantile(dispatch_ms, 0.5);
  pass.inbound_p50_ms = Quantile(inbound_ms, 0.5);
  pass.outbound_p50_ms = Quantile(outbound_ms, 0.5);
  pass.busy_ratio = r.end > r.start ? busy / (r.end - r.start) : 0.0;
}

/// Runs setup, training and serving once. `spans` non-null = traced pass.
Pass RunPass(const Workload& w, const Args& args, SpanLog* spans) {
  Pass pass;
  std::optional<ScopedCostLedger> ledger;
  if (spans != nullptr) ledger.emplace(true);

  // --- Setup: what p2pdtd's MakeVectorizedCorpus does, timed per stage.
  const CorpusOptions corpus_options = MakeCorpusOptions();
  std::optional<VectorizedCorpus> corpus;
  std::vector<double> setup, generate, vectorize;
  for (std::size_t k = 0; k < kSetupRepeats; ++k) {
    corpus.reset();
    const double t0 = MonotonicSeconds();
    Result<GeneratedCorpus> raw = GenerateCorpus(corpus_options);
    const double t1 = MonotonicSeconds();
    if (!raw.ok()) {
      pass.errors.push_back("GenerateCorpus: " + raw.status().ToString());
      return pass;
    }
    Preprocessor preprocessor;
    Result<VectorizedCorpus> vc = VectorizeCorpus(*raw, preprocessor);
    const double t2 = MonotonicSeconds();
    if (!vc.ok()) {
      pass.errors.push_back("VectorizeCorpus: " + vc.status().ToString());
      return pass;
    }
    if (spans != nullptr) {
      spans->Add("corpus.generate", t0, t1);
      spans->Add("text.vectorize", t1, t2);
    }
    setup.push_back(t2 - t0);
    generate.push_back(t1 - t0);
    vectorize.push_back(t2 - t1);
    corpus = std::move(vc).value();
  }
  pass.setup_s = Median(setup);
  pass.generate_s = Median(generate);
  pass.vectorize_s = Median(vectorize);
  pass.num_docs = corpus->dataset.size();

  // --- Training: BuildTrainedService as p2pdtd calls it, except that the
  // catalog is the whole held-out split (p2pdtd caps it at 256 documents).
  ServiceHarnessOptions harness;
  harness.algorithm = w.algorithm;
  harness.env.num_peers = w.peers;
  harness.max_docs = 0;
  harness.seed = kCorpusSeed;
  std::unique_ptr<TrainedService> service;
  std::vector<double> build_util;
  CostCounts cost0;
  for (std::size_t k = 0; k < w.train_repeats; ++k) {
    service.reset();
    cost0 = CostLedger::Collect();
    const double cpu0 = CpuSeconds();
    const double t0 = MonotonicSeconds();
    Result<std::unique_ptr<TrainedService>> built =
        BuildTrainedService(*corpus, harness);
    const double t1 = MonotonicSeconds();
    const double cpu1 = CpuSeconds();
    if (!built.ok()) {
      pass.errors.push_back("BuildTrainedService: " +
                            built.status().ToString());
      return pass;
    }
    if (spans != nullptr) spans->Add("p2pdmt.build_service", t0, t1);
    pass.build_s.push_back(t1 - t0);
    build_util.push_back((cpu1 - cpu0) / (t1 - t0));
    service = std::move(built).value();
  }
  // Builds are deterministic, so the last one's counts stand for all.
  pass.train_cost = CostLedger::Collect() - cost0;
  pass.train_s = Median(pass.build_s);
  pass.train_cpu_util = Median(build_util);
  TrainedService& trained = *service;
  Environment& env = *trained.env;
  const NetworkStats& net = env.net().stats();
  MetricsRegistry& metrics = *env.metrics();
  pass.train_events = env.sim().executed_events();
  pass.train_messages = net.messages_sent();
  for (std::size_t t = 0; t < NetworkStats::kNumTypes; ++t) {
    pass.train_bytes[t] = net.bytes_sent(static_cast<MessageType>(t));
  }
  pass.wire_kib_per_peer = static_cast<double>(net.bytes_sent()) / 1024.0 /
                           static_cast<double>(w.peers);
  pass.local_train_s = Phase(metrics, w.algorithm, "local_train").sum();
  pass.cascade_merge_s = Phase(metrics, w.algorithm, "cascade_merge").sum();

  // --- The fixed request list and the truth it is scored against.
  const CorpusSplit split =
      SplitCorpus(*corpus, harness.train_fraction, harness.seed);
  const TagId num_tags = corpus->dataset.num_tags();
  corpus.reset();
  std::vector<uint32_t> doc_index;
  const std::vector<Request> requests =
      MakeRequests(w, args, trained.catalog, doc_index);
  pass.catalog = trained.catalog.size();
  pass.attempted = requests.size();
  {
    std::unordered_set<uint32_t> docs;
    std::unordered_set<uint64_t> pairs;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      docs.insert(doc_index[i]);
      pairs.insert(requests[i].requester * pass.catalog + doc_index[i]);
    }
    pass.distinct_docs = docs.size();
    pass.repeat_share = 1.0 - PerReq(docs.size(), requests.size());
    pass.pair_repeat_share = 1.0 - PerReq(pairs.size(), requests.size());
  }

  // --- Serving: the daemon as p2pdtd configures it, on its own thread.
  DaemonOptions daemon_options;
  daemon_options.bind_address = "127.0.0.1";
  daemon_options.port = 0;
  daemon_options.max_connections = 256;
  daemon_options.idle_timeout = 30.0;
  daemon_options.drain_timeout = 10.0;
  daemon_options.serve.enabled = false;
  daemon_options.serve.admission_control = false;
  daemon_options.metrics = &metrics;
  std::vector<std::vector<DispatchRecord>> dispatched(kConnections);
  ServiceDaemon::Dispatch dispatch =
      [&trained](NodeId requester, const SparseVector& x) {
        return trained.Serve(requester, x);
      };
  if (spans != nullptr) {
    std::vector<std::size_t> per_conn(kConnections, 0);
    for (const Request& req : requests) {
      ++per_conn[req.requester % kConnections];
    }
    for (std::size_t c = 0; c < kConnections; ++c) {
      dispatched[c].reserve(per_conn[c]);
    }
    dispatch = [&trained, &dispatched](NodeId requester,
                                       const SparseVector& x) {
      const double start = MonotonicSeconds();
      P2PPrediction p = trained.Serve(requester, x);
      dispatched[requester % kConnections].push_back(
          {requester, x.nnz(), start, MonotonicSeconds()});
      return p;
    };
  }
  ServiceDaemon daemon(daemon_options, dispatch);
  Status started = daemon.Start();
  if (!started.ok()) {
    pass.errors.push_back("daemon start: " + started.ToString());
    return pass;
  }
  Histogram& top_k = Phase(metrics, w.algorithm, "top_k_retrieve");
  Histogram& vote = Phase(metrics, w.algorithm, "vote");
  const uint64_t top_k_n0 = top_k.count(), vote_n0 = vote.count();
  const double top_k_s0 = top_k.sum(), vote_s0 = vote.sum();
  const double sim0 = env.sim().Now();
  const uint64_t events0 = env.sim().executed_events();
  const uint64_t messages0 = net.messages_sent();
  const CostCounts tag_cost0 = CostLedger::Collect();

  DriverOptions driver;
  driver.open_loop = w.open_loop;
  driver.window = args.window;
  driver.num_tags = num_tags;
  DriverResult r;
  {
    DaemonThread loop(daemon);
    r = servebench::RunDriver("127.0.0.1", daemon.port(), requests, driver);
    loop.Stop();
  }
  pass.tag_cost = CostLedger::Collect() - tag_cost0;
  pass.tag_sim_ms = PerReq((env.sim().Now() - sim0) * 1e3, pass.attempted);
  pass.tag_events_per_req =
      PerReq(static_cast<double>(env.sim().executed_events() - events0),
             pass.attempted);
  pass.tag_messages_per_req = PerReq(
      static_cast<double>(net.messages_sent() - messages0), pass.attempted);
  pass.top_k_ms = MeanMsSince(top_k, top_k_n0, top_k_s0);
  pass.vote_ms = MeanMsSince(vote, vote_n0, vote_s0);
  const DaemonStats& stats = daemon.stats();
  pass.bytes_per_req = PerReq(
      static_cast<double>(stats.bytes_in + stats.bytes_out), pass.attempted);

  // --- Scoring and validation.
  pass.failed = r.failed;
  for (std::string& e : r.errors) pass.errors.push_back(std::move(e));
  if (stats.requests != pass.attempted || stats.served_ok != pass.attempted) {
    pass.errors.push_back("daemon served " + std::to_string(stats.served_ok) +
                          " of " + std::to_string(pass.attempted) +
                          " requests fully");
  }
  pass.fingerprint = r.fingerprint;
  std::vector<std::pair<double, double>> due_latency_ms;
  std::vector<double> late_ms;
  std::vector<std::vector<TagId>> truth, predicted;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Answer& a = r.answers[i];
    std::vector<TagId> tags = split.test[doc_index[i]].tags;
    std::sort(tags.begin(), tags.end());
    truth.push_back(std::move(tags));
    predicted.emplace_back(a.tags.begin(), a.tags.end());
    if (!a.ok) continue;
    due_latency_ms.emplace_back(a.due, (a.answered - a.due) * 1e3);
    late_ms.push_back((a.sent - a.due) * 1e3);
  }
  const MultiLabelMetrics quality =
      EvaluateMultiLabel(truth, predicted, num_tags);
  pass.micro_f1 = quality.micro_f1;
  pass.macro_f1 = quality.macro_f1;
  pass.samples = due_latency_ms.size();
  std::sort(due_latency_ms.begin(), due_latency_ms.end());
  std::vector<double> latency_ms, slice_p99;
  for (const auto& [due, ms] : due_latency_ms) latency_ms.push_back(ms);
  for (std::size_t k = 0; k < kLatencySlices; ++k) {
    std::vector<double> slice(
        latency_ms.begin() + k * pass.samples / kLatencySlices,
        latency_ms.begin() + (k + 1) * pass.samples / kLatencySlices);
    slice_p99.push_back(Quantile(slice, 0.99));
  }
  pass.p50_ms = Quantile(latency_ms, 0.5);
  pass.p99_ms = Median(slice_p99);
  pass.late_p99_ms = Quantile(late_ms, 0.99);
  pass.rate_rps =
      r.end > r.start ? static_cast<double>(pass.samples) / (r.end - r.start)
                      : 0.0;
  if (spans != nullptr) JoinDispatch(requests, r, dispatched, *spans, pass);
  pass.peak_rss_mib = static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0);
  return pass;
}

std::vector<Metric> EndToEnd(const Pass& p) {
  return {
      {"setup_s", p.setup_s, "s"},
      {"train_s", p.train_s, "s"},
      {"train_wire_kib_per_peer", p.wire_kib_per_peer, "KiB"},
      {"tag_rate_rps", p.rate_rps, "1/s"},
      {"tag_p50_ms", p.p50_ms, "ms"},
      {"tag_p99_ms", p.p99_ms, "ms"},
      {"micro_f1", p.micro_f1, "ratio"},
      {"macro_f1", p.macro_f1, "ratio"},
      {"peak_rss_mib", p.peak_rss_mib, "MiB"},
  };
}

std::vector<Metric> PerLayer(const Pass& p, const Pass& untraced) {
  const auto n = static_cast<double>(p.attempted);
  const auto u = [](uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"corpus.generate_s", p.generate_s, "s"},
      {"text.vectorize_s", p.vectorize_s, "s"},
      {"text.docs_per_s", static_cast<double>(p.num_docs) / p.vectorize_s,
       "1/s"},
      {"p2psim.train_events", u(p.train_events), "count"},
      {"p2psim.train_messages", u(p.train_messages), "count"},
  };
  for (std::size_t t = 0; t < NetworkStats::kNumTypes; ++t) {
    m.push_back({std::string("p2psim.train_wire_kib.") +
                     MessageTypeToString(static_cast<MessageType>(t)),
                 u(p.train_bytes[t]) / 1024.0, "KiB"});
  }
  const CostCounts& tc = p.tag_cost;
  const CostCounts& rc = p.train_cost;
  const std::vector<Metric> rest = {
      {"p2psim.tag_events_per_req", p.tag_events_per_req, "count"},
      {"p2psim.tag_messages_per_req", p.tag_messages_per_req, "count"},
      {"p2psim.tag_sim_ms_per_req", p.tag_sim_ms, "ms"},
      {"p2pml.dispatch_ms_p50", p.dispatch_p50_ms, "ms"},
      {"p2pml.dispatch_busy_ratio", p.busy_ratio, "ratio"},
      {"p2pml.phase.local_train_s", p.local_train_s, "s"},
      {"p2pml.phase.cascade_merge_s", p.cascade_merge_s, "s"},
      {"p2pml.phase.top_k_retrieve_ms", p.top_k_ms, "ms"},
      {"p2pml.phase.vote_ms", p.vote_ms, "ms"},
      {"ml.train_kernel_evals", u(rc.kernel_evals), "count"},
      {"ml.train_smo_iterations", u(rc.smo_iterations), "count"},
      {"ml.train_sparse_dist_ops", u(rc.sparse_dist_ops), "count"},
      {"ml.train_sparse_dot_ops", u(rc.sparse_dot_ops), "count"},
      {"ml.train_kmeans_distance_evals", u(rc.kmeans_distance_evals), "count"},
      {"ml.train_lsh_signature_dots", u(rc.lsh_signature_dots), "count"},
      {"ml.tag_kernel_evals_per_req", u(tc.kernel_evals) / n, "count"},
      {"ml.sparse_ops_per_kernel_eval",
       PerReq(u(tc.sparse_dist_ops), tc.kernel_evals), "count"},
      {"ml.tag_lsh_probes_per_req", u(tc.lsh_probes) / n, "count"},
      {"ml.tag_lsh_candidates_per_req", u(tc.lsh_candidates) / n, "count"},
      {"ml.tag_sparse_dot_ops_per_req", u(tc.sparse_dot_ops) / n, "count"},
      {"ml.tag_sparse_dist_ops_per_req", u(tc.sparse_dist_ops) / n, "count"},
      {"net.inbound_ms_p50", p.inbound_p50_ms, "ms"},
      {"net.outbound_ms_p50", p.outbound_p50_ms, "ms"},
      {"net.bytes_per_req", p.bytes_per_req, "bytes"},
      {"common.train_cpu_util", p.train_cpu_util, "ratio"},
      {"loadgen.late_p99_ms", p.late_p99_ms, "ms"},
      {"loadgen.repeat_share", p.repeat_share, "ratio"},
      // Tracing overhead: how much slower the traced pass was, as a share.
      {"trace_overhead.setup_s", p.setup_s / untraced.setup_s - 1.0, "ratio"},
      {"trace_overhead.train_s", p.train_s / untraced.train_s - 1.0, "ratio"},
      {"trace_overhead.tag_rate_rps", untraced.rate_rps / p.rate_rps - 1.0,
       "ratio"},
      {"trace_overhead.tag_p50_ms", p.p50_ms / untraced.p50_ms - 1.0, "ratio"},
      {"trace_overhead.tag_p99_ms", p.p99_ms / untraced.p99_ms - 1.0, "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintRecord(const Workload& w, const Args& args, const Pass& p) {
  std::printf(
      "record {\"workload\":\"%s\",\"seed\":%llu,\"confirm_seed\":%llu,"
      "\"corpus_seed\":%llu,"
      "\"seconds\":%s,\"trace\":%d,\"algorithm\":\"%s\",\"peers\":%zu,"
      "\"loop\":\"%s\",\"connections\":%zu,\"window\":%zu,"
      "\"offered_rps\":%s,\"doc_draw\":\"%s\",\"catalog\":%zu,"
      "\"corpus_docs\":%zu,\"requests\":%zu,\"distinct_docs\":%zu,"
      "\"repeat_share\":%s,\"requester_doc_repeat_share\":%s,"
      "\"train_threads\":%u,\"setup_repeats\":%zu,\"train_repeats\":%zu,"
      "\"latency_samples\":%zu,\"tag_p99_limit_ms\":%s,"
      "\"build_info\":%s}\n",
      w.name, static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(kConfirmSeed),
      static_cast<unsigned long long>(kCorpusSeed), Num(args.seconds).c_str(),
      args.trace ? 1 : 0,
      w.algorithm == AlgorithmType::kCempar ? "cempar" : "pace", w.peers,
      w.open_loop ? "open" : "closed", kConnections,
      w.open_loop ? 0 : args.window, Num(w.open_loop ? w.rate : 0.0).c_str(),
      w.zipf_s > 0.0 ? ("zipf(" + Num(w.zipf_s) + ")").c_str() : "uniform",
      p.catalog, p.num_docs, p.attempted, p.distinct_docs,
      Num(p.repeat_share).c_str(), Num(p.pair_repeat_share).c_str(),
      kTrainThreads, kSetupRepeats, w.train_repeats, p.samples,
      w.open_loop ? Num(kP99LimitMs).c_str() : "null",
      BuildInfo::Current().ToJson().c_str());
}

void PrintMetrics(const char* header, const std::vector<Metric>& metrics) {
  std::printf("%s\n", header);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void Usage() {
  std::fprintf(stderr,
               "usage: servebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--window W]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) return false;
      continue;
    }
    if (arg == "--seed") {
      args.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(v.c_str(), &end);
      if (!(args.seconds > 0.0 && args.seconds <= 600.0)) return false;
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return false;
      args.trace = v == "1";
      continue;
    } else if (arg == "--window") {
      args.window = std::strtoull(v.c_str(), &end, 10);
      if (args.window == 0) return false;
    } else {
      return false;
    }
    if (end == v.c_str() || *end != '\0') return false;
  }
  return args.workload != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    Usage();
    return 2;
  }
  // Pin the training pool (it defaults to hardware_concurrency) before its
  // first use, so BuildInfo stamps the same value.
  setenv("P2PDT_THREADS", std::to_string(kTrainThreads).c_str(), 1);
  Logger::Instance().set_level(LogLevel::kWarning);
  const Workload& w = *args.workload;

  const Pass untraced = RunPass(w, args, nullptr);
  std::vector<std::string> errors = untraced.errors;
  std::size_t attempted = untraced.attempted;
  std::size_t failed = untraced.failed;
  PrintRecord(w, args, untraced);
  PrintMetrics("end-to-end (untraced pass)", EndToEnd(untraced));
  std::printf("  %-36s %14.6g ms  (simulated P2P time per request)\n",
              "tag_sim_ms", untraced.tag_sim_ms);
  std::printf("  %-36s %14zu\n", "latency_samples", untraced.samples);
  std::printf("  %-36s", "train_builds_s");
  for (double s : untraced.build_s) std::printf(" %.4g", s);
  std::printf("\n");
  if (w.open_loop) {
    std::printf("  tag_p99_ms limit %.3g ms: %s\n", kP99LimitMs,
                untraced.p99_ms <= kP99LimitMs ? "met" : "NOT met");
  }
  std::printf("  answer_fingerprint %016llx\n",
              static_cast<unsigned long long>(untraced.fingerprint));

  std::vector<Metric> result = EndToEnd(untraced);
  if (args.trace) {
    SpanLog spans;
    const Pass traced = RunPass(w, args, &spans);
    for (const std::string& e : traced.errors) errors.push_back(e);
    attempted += traced.attempted;
    failed += traced.failed;
    if (traced.fingerprint != untraced.fingerprint) {
      errors.push_back("traced and untraced answers differ");
    }
    PrintMetrics("end-to-end (traced pass)", EndToEnd(traced));
    std::printf("  answer_fingerprint %016llx\n",
                static_cast<unsigned long long>(traced.fingerprint));
    result = PerLayer(traced, untraced);
    PrintMetrics("per-layer (traced pass)", result);
    std::printf("spans: %-22s %9s %12s %12s %14s\n", "name", "count",
                "total_s", "self_s", "self_p50_ms");
    for (const SpanLog::Summary& s : spans.Summarize()) {
      std::printf("       %-22s %9zu %12.4f %12.4f %14.4f\n", s.name.c_str(),
                  s.count, s.total_s, s.self_s, s.self_p50_ms);
    }
    mkdir(".bench_out", 0755);
    const std::string path =
        std::string(".bench_out/") + w.name + ".spans.jsonl";
    if (!spans.Write(path)) errors.push_back("cannot write " + path);
  }

  for (const Metric& m : result) {
    if (!std::isfinite(m.value)) errors.push_back(m.name + " is not finite");
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "servebench: %s\n", e.c_str());
  }
  const bool correct = errors.empty() && failed == 0;
  PrintResult(correct, attempted, failed, result);
  return correct ? 0 : 1;
}
