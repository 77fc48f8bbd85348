// SVC1 — real-socket service robustness: train CEMPaR and PACE, stand the
// epoll daemon up on an ephemeral loopback port, and replay the PR 8
// session schedule over real TCP connections. Two arms per algorithm:
//
//   clean    the replay alone — the latency/goodput baseline
//   faulted  the same replay with the SocketFaultInjector running
//            concurrently (abrupt RSTs, slowloris stalls, one-byte frame
//            drip, the malformed-bytes set)
//
// The robustness claim: the faulted arm loses nothing. Same request count
// served, zero replay failures, zero lost connections, and a per-answer
// fingerprint identical to the clean arm's — socket-level abuse changes no
// prediction. Each arm gets a freshly trained service (same seed), so the
// fingerprints are comparable by construction. Every arm ends with a
// graceful drain that must complete inside the deadline.
//
// `--smoke` runs a small grid and writes the same CSV schema for CI
// (tools/check_csv.py).

#include <cstdio>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "net/daemon.h"
#include "net/socket_fault.h"
#include "p2pdmt/service_harness.h"
#include "p2pdmt/service_loadgen.h"

using namespace p2pdt_bench;

namespace {

struct ServiceBenchOptions {
  std::size_t num_peers = 24;
  std::size_t num_tags = 6;
  std::size_t sessions = 16;
  std::size_t min_docs = 10;
  std::size_t max_docs = 20;
  double arrival_rate = 200.0;
  std::size_t catalog_cap = 256;
  double idle_timeout = 2.0;
  double max_wall_seconds = 300.0;
};

/// One trained daemon, one replay, optional concurrent fault script, then a
/// graceful drain. The daemon runs on its own thread; it is fully
/// constructed before the thread starts (that construction is the
/// happens-before edge handing the classifier to the loop thread), and
/// after Run() returns only this thread reads the stats.
Result<CsvWriter::Row> RunArm(const VectorizedCorpus& corpus,
                              AlgorithmType algorithm, bool faulted,
                              const ServiceBenchOptions& bench) {
  ServiceHarnessOptions harness;
  harness.algorithm = algorithm;
  harness.env.num_peers = bench.num_peers;
  harness.max_docs = bench.catalog_cap;
  harness.seed = 20100913;
  const double t0 = MonotonicSeconds();
  Result<std::unique_ptr<TrainedService>> service =
      BuildTrainedService(corpus, harness);
  P2PDT_RETURN_IF_ERROR(service.status());
  const double train_wall_s = MonotonicSeconds() - t0;
  TrainedService& trained = **service;

  DaemonOptions options;
  options.port = 0;  // ephemeral — no collisions across arms
  options.idle_timeout = bench.idle_timeout;
  ServiceDaemon daemon(options,
                      [&trained](NodeId requester, const SparseVector& x) {
                        return trained.Serve(requester, x);
                      });
  P2PDT_RETURN_IF_ERROR(daemon.Start());
  std::thread loop([&daemon] { daemon.Run(); });

  SocketFaultReport faults;  // zero-initialised on the clean arm
  Status fault_status = Status::OK();
  std::thread abuse;
  if (faulted) {
    SocketFaultOptions fo;
    fo.port = daemon.port();
    fo.io_timeout = bench.idle_timeout + 5.0;
    if (!trained.catalog.empty()) fo.doc = trained.catalog[0];
    abuse = std::thread([fo, &faults, &fault_status] {
      Result<SocketFaultReport> r = RunSocketFaults(fo);
      if (r.ok()) {
        faults = *r;
      } else {
        fault_status = r.status();
      }
    });
  }

  ServiceLoadOptions load;
  load.port = daemon.port();
  load.max_wall_seconds = bench.max_wall_seconds;
  load.schedule.sessions = bench.sessions;
  load.schedule.min_docs = bench.min_docs;
  load.schedule.max_docs = bench.max_docs;
  load.schedule.arrival_rate = bench.arrival_rate;
  load.schedule.seed = 20100913;
  Result<ServiceLoadResult> replay = RunServiceLoad(load, trained.catalog);

  if (abuse.joinable()) abuse.join();
  daemon.RequestDrain();
  loop.join();

  P2PDT_RETURN_IF_ERROR(replay.status());
  P2PDT_RETURN_IF_ERROR(fault_status);
  const LoadGenResult& r = replay->load;
  const DaemonStats& d = daemon.stats();
  CsvWriter::Row row;
  row.Add("algorithm", AlgorithmTypeToString(algorithm))
      .Add("arm", faulted ? "faulted" : "clean")
      .Add("offered", r.offered)
      .Add("completed", r.completed)
      .Add("ok", r.ok)
      .Add("degraded", r.degraded)
      .Add("cached", r.cached)
      .Add("failed", r.failed)
      .Add("shed", r.shed)
      .Add("retries", r.retries)
      .Add("within_slo", r.within_slo)
      .Add("io_errors", replay->io_errors)
      .Add("p50_s", r.p50_latency)
      .Add("p95_s", r.p95_latency)
      .Add("p99_s", r.p99_latency)
      .Add("achieved_rate", replay->achieved_rate)
      .Add("wall_s", replay->wall_seconds)
      .Add("train_wall_s", train_wall_s)
      .Hex("fingerprint", r.fingerprint)
      .Add("daemon_accepted", d.accepted)
      .Add("daemon_requests", d.requests)
      .Add("daemon_malformed", d.malformed_frames + d.malformed_payloads)
      .Add("daemon_oversized", d.oversized_frames)
      .Add("daemon_reaped_idle", d.reaped_idle)
      .Add("daemon_read_errors", d.read_errors)
      .Add("daemon_slow_consumer_closed", d.slow_consumer_closed)
      .Flag("drain_completed", d.drain_completed)
      .Add("fault_resets", faults.resets_done)
      .Add("fault_stalls_reaped", faults.stalls_reaped)
      .Add("fault_typed_errors", faults.typed_errors_received)
      .Add("fault_predicts_ok", faults.predicts_ok)
      .Flag("fault_liveness_ok", faults.liveness_ok);
  return row;
}

int RunGrid(const ServiceBenchOptions& bench) {
  const VectorizedCorpus& corpus =
      SharedCorpus(bench.num_peers, bench.num_tags);
  CsvWriter csv;
  for (AlgorithmType algorithm :
       {AlgorithmType::kPace, AlgorithmType::kCempar}) {
    for (bool faulted : {false, true}) {
      Result<CsvWriter::Row> row = RunArm(corpus, algorithm, faulted, bench);
      if (!row.ok()) {
        std::fprintf(stderr, "arm failed: %s\n",
                     row.status().ToString().c_str());
        return 1;
      }
      if (!EmitRow(csv, *row)) return 1;
    }
  }
  WriteResults(csv, "service.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    std::printf("=== SVC1 smoke: socket replay, clean vs faulted ===\n");
    ServiceBenchOptions bench;
    bench.num_peers = 12;
    bench.num_tags = 4;
    bench.sessions = 8;
    bench.min_docs = 5;
    bench.max_docs = 10;
    bench.catalog_cap = 64;
    return RunGrid(bench);
  }

  // Full mode: >= 10k requests per arm under concurrent fault injection —
  // the ISSUE acceptance bar.
  std::printf("=== SVC1: socket replay, clean vs faulted, 10k+ requests ===\n\n");
  ServiceBenchOptions bench;
  bench.num_peers = 24;
  bench.num_tags = 6;
  bench.sessions = 160;
  bench.min_docs = 55;
  bench.max_docs = 75;
  bench.arrival_rate = 400.0;
  bench.catalog_cap = 512;
  // Sessions idle between Poisson arrivals; at this rate a 2 s reaper
  // would close ~2.5% of legitimate gaps mid-session. Keep the deadline
  // far above any plausible gap so only injected stalls get reaped.
  bench.idle_timeout = 20.0;
  bench.max_wall_seconds = 600.0;
  return RunGrid(bench);
}
