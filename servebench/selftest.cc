// Checks of the servebench load drivers themselves, against a real
// ServiceDaemon whose dispatch answers instantly:
//
//  1. Open loop: a 200 ms generator stall must raise tag_p99 (timed from
//     each request's due time) and the late p99 past 150 ms, while the same
//     run timed from the actual send hides it — the coordinated omission
//     the due-time clock exists to prevent.
//  2. Closed loop: every answer arrives, and no connection ever has more
//     than its window in flight.
//
// Run: bash servebench/run.sh --selftest   (exit 0 = all checks held)

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "driver.h"
#include "net/daemon.h"

namespace {

using namespace p2pdt;
using servebench::Answer;
using servebench::DriverOptions;
using servebench::DriverResult;
using servebench::Quantile;
using servebench::Request;

constexpr uint32_t kNumTags = 4;
int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

struct Latencies {
  double due_p99_ms = 0.0;
  double sent_p99_ms = 0.0;
  double late_p99_ms = 0.0;
};

Latencies Measure(const DriverResult& r) {
  std::vector<double> due, sent, late;
  for (const Answer& a : r.answers) {
    due.push_back((a.answered - a.due) * 1e3);
    sent.push_back((a.answered - a.sent) * 1e3);
    late.push_back((a.sent - a.due) * 1e3);
  }
  return {Quantile(due, 0.99), Quantile(sent, 0.99), Quantile(late, 0.99)};
}

}  // namespace

int main() {
  ServiceDaemon daemon(DaemonOptions{}, [](NodeId, const SparseVector&) {
    P2PPrediction p;
    p.tags = {1};
    p.scores.assign(kNumTags, 0.5);
    return p;
  });
  Status started = daemon.Start();
  if (!started.ok()) {
    std::printf("FAIL daemon start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::thread loop([&daemon] { daemon.Run(); });

  const SparseVector doc = SparseVector::FromPairs({{3, 1.0}, {7, 0.5}});
  DriverOptions options;
  options.num_tags = kNumTags;

  // 1. Open loop, 1000 req/s for 0.6 s over 4 connections.
  std::vector<Request> open;
  for (std::size_t i = 0; i < 600; ++i) {
    open.push_back({&doc, i, static_cast<double>(i) * 1e-3});
  }
  options.open_loop = true;
  const DriverResult calm = servebench::RunDriver("127.0.0.1", daemon.port(),
                                                  open, options);
  options.stall_at = 0.2;
  options.stall_seconds = 0.2;
  const DriverResult stalled = servebench::RunDriver(
      "127.0.0.1", daemon.port(), open, options);
  const Latencies c = Measure(calm);
  const Latencies s = Measure(stalled);
  std::printf("open loop p99 ms: calm due=%.3f sent=%.3f late=%.3f | "
              "stalled due=%.3f sent=%.3f late=%.3f\n",
              c.due_p99_ms, c.sent_p99_ms, c.late_p99_ms, s.due_p99_ms,
              s.sent_p99_ms, s.late_p99_ms);
  Check(calm.failed == 0 && stalled.failed == 0,
        "open loop: every answer valid");
  Check(s.due_p99_ms > 150.0 && s.due_p99_ms > 5.0 * c.due_p99_ms,
        "open loop: a generator stall raises p99 timed from due time");
  Check(s.late_p99_ms > 150.0, "open loop: the stall shows as lateness");
  Check(s.sent_p99_ms < 100.0,
        "open loop: timing from the send would have hidden the stall");

  // 2. Closed loop, window 3.
  std::vector<Request> closed;
  for (std::size_t i = 0; i < 400; ++i) closed.push_back({&doc, i, 0.0});
  options = DriverOptions{};
  options.num_tags = kNumTags;
  options.window = 3;
  const DriverResult r =
      servebench::RunDriver("127.0.0.1", daemon.port(), closed, options);
  std::size_t max_inflight = 0;
  for (std::size_t c = 0; c < servebench::kConnections; ++c) {
    std::vector<const Answer*> conn;
    for (std::size_t i = c; i < r.answers.size();
         i += servebench::kConnections) {
      conn.push_back(&r.answers[i]);
    }
    for (const Answer* a : conn) {
      const std::size_t inflight = static_cast<std::size_t>(
          std::count_if(conn.begin(), conn.end(), [&](const Answer* b) {
            return b->sent <= a->sent && b->answered > a->sent;
          }));
      max_inflight = std::max(max_inflight, inflight);
    }
  }
  Check(r.failed == 0 && r.errors.empty(), "closed loop: every answer valid");
  Check(max_inflight >= 1 && max_inflight <= options.window,
        "closed loop: in flight per connection stays within the window (max " +
            std::to_string(max_inflight) + ")");

  daemon.RequestDrain();
  loop.join();
  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
