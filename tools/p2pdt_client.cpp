// p2pdt_client — drives a running p2pdtd. Three modes:
//
//   --ping            liveness probe (one ping round-trip)
//   --sessions N ...  replay the PR 8 session schedule over real sockets
//   --faults          run the SocketFaultInjector scenario script
//
// The replay reconstructs the daemon's document catalog deterministically
// from the same (corpus seed, split seed) — no document transfer needed;
// both sides derive identical bytes. Flags --users/--tags/--seed/--max-docs
// must therefore match the daemon's.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "corpus/vectorize.h"
#include "net/client.h"
#include "net/socket_fault.h"
#include "p2pdmt/service_harness.h"
#include "p2pdmt/service_loadgen.h"

using namespace p2pdt;

namespace {

struct Flags {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  bool ping = false;
  bool faults = false;
  std::size_t sessions = 0;
  std::size_t min_docs = 10;
  std::size_t max_docs_per_session = 20;
  double rate = 40.0;
  bool closed_loop = false;
  double slo = 1.0;
  std::size_t retries = 1;
  // Corpus/catalog parameters — must match the daemon's.
  std::size_t users = 24;
  std::size_t tags = 6;
  std::size_t max_docs = 256;
  uint64_t seed = 20100913;
};

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s --port N [--host ADDR] (--ping | --faults | --sessions N)\n"
      "          [--rate R] [--min-docs N] [--max-docs-per-session N]\n"
      "          [--closed-loop] [--slo SEC] [--retries N]\n"
      "          [--users N] [--tags N] [--max-docs N] [--seed N]\n",
      prog);
}

bool ParseFlags(int argc, char** argv, Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--ping") {
      flags.ping = true;
    } else if (arg == "--faults") {
      flags.faults = true;
    } else if (arg == "--closed-loop") {
      flags.closed_loop = true;
    } else if (arg == "--host" && (v = next())) {
      flags.host = v;
    } else if (arg == "--port" && (v = next())) {
      flags.port = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--sessions" && (v = next())) {
      flags.sessions = std::strtoull(v, nullptr, 10);
    } else if (arg == "--rate" && (v = next())) {
      flags.rate = std::strtod(v, nullptr);
    } else if (arg == "--min-docs" && (v = next())) {
      flags.min_docs = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-docs-per-session" && (v = next())) {
      flags.max_docs_per_session = std::strtoull(v, nullptr, 10);
    } else if (arg == "--slo" && (v = next())) {
      flags.slo = std::strtod(v, nullptr);
    } else if (arg == "--retries" && (v = next())) {
      flags.retries = std::strtoull(v, nullptr, 10);
    } else if (arg == "--users" && (v = next())) {
      flags.users = std::strtoull(v, nullptr, 10);
    } else if (arg == "--tags" && (v = next())) {
      flags.tags = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-docs" && (v = next())) {
      flags.max_docs = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed" && (v = next())) {
      flags.seed = std::strtoull(v, nullptr, 10);
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  return true;
}

Result<std::vector<SparseVector>> MakeCatalog(const Flags& flags) {
  CorpusOptions corpus_options;
  corpus_options.num_users = flags.users;
  corpus_options.min_docs_per_user = 50;
  corpus_options.max_docs_per_user = 80;
  corpus_options.num_tags = flags.tags;
  corpus_options.vocabulary_size = 3000;
  corpus_options.seed = flags.seed;
  Result<VectorizedCorpus> corpus = MakeVectorizedCorpus(corpus_options);
  if (!corpus.ok()) return corpus.status();
  // The daemon's split (kTrainFraction) is fixed, so the catalog matches.
  return BuildServiceCatalog(*corpus, flags.max_docs, flags.seed);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, flags)) return 2;
  if (flags.port == 0) {
    Usage(argv[0]);
    return 2;
  }

  if (flags.ping) {
    ServiceClient client;
    Status st = client.Connect(flags.host, flags.port);
    if (st.ok()) st = client.Ping(0x9109);
    if (!st.ok()) {
      std::fprintf(stderr, "ping failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }

  if (flags.faults) {
    Result<std::vector<SparseVector>> catalog = MakeCatalog(flags);
    if (!catalog.ok()) {
      std::fprintf(stderr, "catalog failed: %s\n",
                   catalog.status().ToString().c_str());
      return 1;
    }
    SocketFaultOptions fault_options;
    fault_options.host = flags.host;
    fault_options.port = flags.port;
    if (!catalog->empty()) fault_options.doc = (*catalog)[0];
    Result<SocketFaultReport> report = RunSocketFaults(fault_options);
    if (!report.ok()) {
      std::fprintf(stderr, "fault script FAILED: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "faults ok: resets=%d stalls=%d partial=%d malformed=%d "
        "typed_errors=%d predicts=%d liveness=%d\n",
        report->resets_done, report->stalls_opened, report->partial_frames_ok,
        report->malformed_sent, report->typed_errors_received,
        report->predicts_ok, report->liveness_ok ? 1 : 0);
    return 0;
  }

  if (flags.sessions == 0) {
    Usage(argv[0]);
    return 2;
  }
  Result<std::vector<SparseVector>> catalog = MakeCatalog(flags);
  if (!catalog.ok()) {
    std::fprintf(stderr, "catalog failed: %s\n",
                 catalog.status().ToString().c_str());
    return 1;
  }
  ServiceLoadOptions load;
  load.host = flags.host;
  load.port = flags.port;
  load.schedule.sessions = flags.sessions;
  load.schedule.min_docs = flags.min_docs;
  load.schedule.max_docs = flags.max_docs_per_session;
  load.schedule.arrival_rate = flags.rate;
  load.schedule.closed_loop = flags.closed_loop;
  load.schedule.slo_latency = flags.slo;
  load.schedule.max_retries = flags.retries;
  load.schedule.seed = flags.seed;
  Result<ServiceLoadResult> result = RunServiceLoad(load, *catalog);
  if (!result.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const LoadGenResult& r = result->load;
  std::printf(
      "offered=%llu completed=%llu ok=%llu cached=%llu degraded=%llu "
      "failed=%llu shed=%llu retries=%llu within_slo=%llu p50=%.4fs "
      "p95=%.4fs p99=%.4fs rate=%.1f/s io_errors=%llu wall=%.2fs "
      "fingerprint=%016llx\n",
      static_cast<unsigned long long>(r.offered),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.cached),
      static_cast<unsigned long long>(r.degraded),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.retries),
      static_cast<unsigned long long>(r.within_slo), r.p50_latency,
      r.p95_latency, r.p99_latency, result->achieved_rate,
      static_cast<unsigned long long>(result->io_errors),
      result->wall_seconds,
      static_cast<unsigned long long>(r.fingerprint));
  // Any failed request or lost connection is a nonzero exit — scripts use
  // this as the robustness verdict.
  return (r.failed == 0 && result->io_errors == 0) ? 0 : 3;
}
