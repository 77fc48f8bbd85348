// End-to-end tests for the real-socket service daemon: connection state
// machine, typed protocol rejects, backpressure/close discipline, idle and
// slowloris reaping, admission-control sheds, graceful drain, and the full
// SocketFaultInjector + socket-loadgen flows — all against a fake dispatch
// (no trained model needed; these tests own the socket layer).
//
// Threading: each fixture builds the daemon fully on the test thread, then
// starts a loop thread — that construction is the happens-before edge. The
// stats are read only after Run() returns (loop joined).

#include <atomic>
#include <chrono>
#include <pthread.h>
#include <signal.h>
#include <time.h>

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/daemon.h"
#include "net/socket_fault.h"
#include "p2pdmt/service_loadgen.h"

namespace p2pdt {
namespace {

SparseVector Doc(uint32_t salt) {
  SparseVector v;
  v.PushBack(salt % 7, 1.0 + salt);
  v.PushBack(100 + salt % 13, 0.5);
  return v;
}

/// Deterministic fake classifier: tags derived from the doc's first id and
/// the requester — enough structure that a corrupted answer is detectable.
P2PPrediction FakeDispatch(NodeId requester, const SparseVector& x) {
  P2PPrediction p;
  p.success = true;
  const uint32_t first =
      x.empty() ? 0u : static_cast<uint32_t>(x.entries()[0].first);
  p.tags = {static_cast<TagId>(first % 5),
            static_cast<TagId>((first + requester) % 5 + 5)};
  p.scores = {1.0 + first, 0.25 * (requester + 1.0)};
  return p;
}

struct DaemonHarness {
  explicit DaemonHarness(DaemonOptions options = {},
                         ServiceDaemon::Dispatch dispatch = FakeDispatch)
      : daemon(std::move(options), std::move(dispatch)) {
    Status st = daemon.Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
    loop = std::thread([this] { daemon.Run(); });
  }

  ~DaemonHarness() { StopAndJoin(); }

  void StopAndJoin() {
    if (loop.joinable()) {
      daemon.RequestDrain();
      loop.join();
    }
  }

  ServiceClient Connect() {
    ServiceClient client;
    Status st = client.Connect("127.0.0.1", daemon.port());
    EXPECT_TRUE(st.ok()) << st.ToString();
    return client;
  }

  ServiceDaemon daemon;
  std::thread loop;
};

PredictRequest MakeRequest(uint64_t id, uint64_t requester, uint32_t salt) {
  PredictRequest req;
  req.id = id;
  req.requester = requester;
  req.doc = Doc(salt);
  return req;
}

std::string RawBytes(uint32_t magic, uint8_t type, uint32_t len,
                     const std::string& payload) {
  std::string out;
  out.push_back(static_cast<char>(magic & 0xFF));
  out.push_back(static_cast<char>((magic >> 8) & 0xFF));
  out.push_back(static_cast<char>((magic >> 16) & 0xFF));
  out.push_back(static_cast<char>((magic >> 24) & 0xFF));
  out.push_back(static_cast<char>(type));
  out.push_back(static_cast<char>(len & 0xFF));
  out.push_back(static_cast<char>((len >> 8) & 0xFF));
  out.push_back(static_cast<char>((len >> 16) & 0xFF));
  out.push_back(static_cast<char>((len >> 24) & 0xFF));
  out += payload;
  return out;
}

TEST(ServiceDaemonTest, PingRoundTrip) {
  DaemonHarness h;
  ServiceClient client = h.Connect();
  EXPECT_TRUE(client.Ping(0xC0FFEE).ok());
}

TEST(ServiceDaemonTest, PredictRoundTripEchoesIdAndAnswer) {
  DaemonHarness h;
  ServiceClient client = h.Connect();
  ServiceClient::PredictOutcome out;
  ASSERT_TRUE(client.Predict(MakeRequest(77, 3, 11), out).ok());
  ASSERT_EQ(out.kind, ServiceClient::PredictOutcome::Kind::kResponse);
  EXPECT_EQ(out.response.id, 77u);
  EXPECT_TRUE(out.response.success);
  const P2PPrediction want = FakeDispatch(3, Doc(11));
  ASSERT_EQ(out.response.tags.size(), want.tags.size());
  for (std::size_t i = 0; i < want.tags.size(); ++i) {
    EXPECT_EQ(out.response.tags[i], static_cast<uint32_t>(want.tags[i]));
  }
  EXPECT_EQ(out.response.scores, want.scores);
}

/// A document whose request frame is about `kib` KiB on the wire.
SparseVector BigDoc(uint32_t salt, std::size_t kib) {
  SparseVector v;
  const std::size_t entries = kib * 1024 / 12;
  for (std::size_t i = 0; i < entries; ++i) {
    v.PushBack(static_cast<uint32_t>(salt + 2 * i), 0.5 + (i % 7));
  }
  return v;
}

TEST(ServiceDaemonTest, PipelinedRequestsAllAnswered) {
  // Every request is written before the first answer is read; responses
  // come back in request order on one connection. The second input puts
  // more than one frame bound (1 MiB) of healthy requests on the socket at
  // once, which the daemon must drain frame by frame instead of rejecting
  // as an overflow.
  std::vector<PredictRequest> small;
  for (int i = 0; i < 50; ++i) small.push_back(MakeRequest(1000 + i, i % 8, i));
  std::vector<PredictRequest> large;
  for (int i = 0; i < 2; ++i) {
    PredictRequest req = MakeRequest(2000 + i, i, 0);
    req.doc = BigDoc(3 + i, 700);
    large.push_back(std::move(req));
  }
  for (const std::vector<PredictRequest>* input : {&small, &large}) {
    DaemonHarness h;
    ServiceClient client = h.Connect();
    std::string burst;
    for (const PredictRequest& req : *input) {
      burst += EncodeFrame(FrameType::kPredictRequest,
                           EncodePredictRequest(req));
    }
    ASSERT_TRUE(client.SendRaw(burst).ok());
    for (const PredictRequest& req : *input) {
      Frame frame;
      ASSERT_TRUE(client.ReadFrame(frame, 10.0).ok()) << "reply " << req.id;
      ASSERT_EQ(frame.type, FrameType::kPredictResponse) << "reply " << req.id;
      Result<PredictResponse> resp = DecodePredictResponse(frame.payload);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->id, req.id);
      EXPECT_EQ(resp->scores, FakeDispatch(static_cast<NodeId>(req.requester),
                                           req.doc)
                                  .scores);
    }
  }
}

TEST(ServiceDaemonTest, OneByteWritesReassemble) {
  DaemonHarness h;
  ServiceClient client = h.Connect();
  const std::string bytes = EncodeFrame(
      FrameType::kPredictRequest, EncodePredictRequest(MakeRequest(5, 1, 2)));
  for (char c : bytes) {
    ASSERT_TRUE(client.SendRaw(std::string(1, c)).ok());
  }
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(frame, 10.0).ok());
  EXPECT_EQ(frame.type, FrameType::kPredictResponse);
}

void ExpectTypedErrorThenClose(ServiceClient& client, WireError want) {
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(frame, 5.0).ok());
  ASSERT_EQ(frame.type, FrameType::kError);
  Result<ErrorReject> reject = DecodeErrorReject(frame.payload);
  ASSERT_TRUE(reject.ok());
  EXPECT_EQ(reject->code, want);
  // Then EOF: a poisoned stream cannot be resumed.
  const Status eof = client.ReadFrame(frame, 5.0);
  EXPECT_EQ(eof.code(), StatusCode::kIOError) << eof.ToString();
}

TEST(ServiceDaemonTest, BadMagicTypedErrorThenClose) {
  DaemonHarness h;
  ServiceClient client = h.Connect();
  ASSERT_TRUE(client.SendRaw(RawBytes(0x12345678, 5, 4, "abcd")).ok());
  ExpectTypedErrorThenClose(client, WireError::kBadMagic);
}

TEST(ServiceDaemonTest, OversizedLengthTypedErrorThenClose) {
  DaemonHarness h;
  ServiceClient client = h.Connect();
  ASSERT_TRUE(
      client
          .SendRaw(RawBytes(kFrameMagic, 1,
                            static_cast<uint32_t>(kMaxFramePayload) + 1, ""))
          .ok());
  ExpectTypedErrorThenClose(client, WireError::kOversized);
}

TEST(ServiceDaemonTest, ZeroPayloadTypedErrorThenClose) {
  DaemonHarness h;
  ServiceClient client = h.Connect();
  ASSERT_TRUE(client.SendRaw(RawBytes(kFrameMagic, 5, 0, "")).ok());
  ExpectTypedErrorThenClose(client, WireError::kZeroPayload);
}

TEST(ServiceDaemonTest, ServerOnlyFrameTypeRejectedThenClose) {
  DaemonHarness h;
  ServiceClient client = h.Connect();
  // kPong is well-formed but only a server sends it.
  ASSERT_TRUE(client.SendFrame(FrameType::kPong, EncodePingPayload(1)).ok());
  ExpectTypedErrorThenClose(client, WireError::kUnexpectedType);
}

TEST(ServiceDaemonTest, MalformedPayloadKeepsConnectionOpen) {
  DaemonHarness h;
  ServiceClient client = h.Connect();
  // Frame boundary holds; the payload inside is garbage. Typed error,
  // stream stays synchronized, next request on the SAME connection works.
  ASSERT_TRUE(client
                  .SendFrame(FrameType::kPredictRequest,
                             std::string("\x01\x02\x03\x04", 4))
                  .ok());
  Frame frame;
  ASSERT_TRUE(client.ReadFrame(frame, 5.0).ok());
  ASSERT_EQ(frame.type, FrameType::kError);
  Result<ErrorReject> reject = DecodeErrorReject(frame.payload);
  ASSERT_TRUE(reject.ok());
  EXPECT_EQ(reject->code, WireError::kMalformed);
  EXPECT_TRUE(client.Ping(0xBEE).ok());
}

TEST(ServiceDaemonTest, AdmissionShedsWithTypedOverloadAndRetryAfter) {
  DaemonOptions options;
  options.serve.enabled = true;
  options.serve.admission_control = true;
  // One token every 2 wall seconds, depth 1: the first request is served,
  // an immediate second lands on a full queue and must be shed.
  options.serve.service_rate = 0.5;
  options.serve.max_depth = 1;
  options.serve.retry_after = 0.125;
  options.admission_nodes = 1;  // all requesters share one queue
  DaemonHarness h(options);
  ServiceClient client = h.Connect();

  ServiceClient::PredictOutcome first;
  ASSERT_TRUE(client.Predict(MakeRequest(1, 0, 1), first).ok());
  EXPECT_EQ(first.kind, ServiceClient::PredictOutcome::Kind::kResponse);

  ServiceClient::PredictOutcome second;
  ASSERT_TRUE(client.Predict(MakeRequest(2, 0, 2), second).ok());
  ASSERT_EQ(second.kind, ServiceClient::PredictOutcome::Kind::kOverload);
  EXPECT_EQ(second.overload.id, 2u);
  EXPECT_GT(second.overload.retry_after, 0.0);

  h.StopAndJoin();
  EXPECT_EQ(h.daemon.stats().shed, 1u);
}

TEST(ServiceDaemonTest, IdleConnectionReapedWithinDeadline) {
  DaemonOptions options;
  options.idle_timeout = 0.2;
  DaemonHarness h(options);
  ServiceClient client = h.Connect();
  ASSERT_TRUE(client.Ping(1).ok());
  // Go silent; the daemon owes us an EOF within idle_timeout + one wheel
  // tick (plus scheduling slack).
  Frame frame;
  const Status st = client.ReadFrame(frame, 5.0);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  h.StopAndJoin();
  EXPECT_EQ(h.daemon.stats().reaped_idle, 1u);
}

TEST(ServiceDaemonTest, SlowlorisMidFrameStallReaped) {
  DaemonOptions options;
  options.idle_timeout = 0.2;
  DaemonHarness h(options);
  ServiceClient client = h.Connect();
  // Half a header, then silence — never enough bytes for a verdict.
  ASSERT_TRUE(client.SendRaw(std::string("P2DF\x05", 5)).ok());
  Frame frame;
  const Status st = client.ReadFrame(frame, 5.0);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  h.StopAndJoin();
  EXPECT_EQ(h.daemon.stats().reaped_idle, 1u);
}

TEST(ServiceDaemonTest, AbruptResetOnlyKillsThatConnection) {
  DaemonHarness h;
  ServiceClient victim = h.Connect();
  ASSERT_TRUE(victim
                  .SendRaw(EncodeFrame(FrameType::kPredictRequest,
                                       EncodePredictRequest(
                                           MakeRequest(9, 0, 3)))
                               .substr(0, 12))  // mid-frame
                  .ok());
  victim.AbortiveClose();  // RST
  // The daemon must shrug it off; an unrelated connection sees full
  // service immediately after.
  ServiceClient healthy = h.Connect();
  EXPECT_TRUE(healthy.Ping(0xAB).ok());
  ServiceClient::PredictOutcome out;
  EXPECT_TRUE(healthy.Predict(MakeRequest(10, 1, 4), out).ok());
  EXPECT_EQ(out.kind, ServiceClient::PredictOutcome::Kind::kResponse);
}

TEST(ServiceDaemonTest, ConnectFloodRefusedWithTypedError) {
  DaemonOptions options;
  options.max_connections = 2;
  DaemonHarness h(options);
  ServiceClient a = h.Connect();
  ServiceClient b = h.Connect();
  ASSERT_TRUE(a.Ping(1).ok());
  ASSERT_TRUE(b.Ping(2).ok());

  ServiceClient refused = h.Connect();
  Frame frame;
  ASSERT_TRUE(refused.ReadFrame(frame, 5.0).ok());
  ASSERT_EQ(frame.type, FrameType::kError);
  Result<ErrorReject> reject = DecodeErrorReject(frame.payload);
  ASSERT_TRUE(reject.ok());
  EXPECT_EQ(reject->code, WireError::kTooManyConnections);
  const Status eof = refused.ReadFrame(frame, 5.0);
  EXPECT_EQ(eof.code(), StatusCode::kIOError);

  // Capacity frees up once a held connection closes.
  a.Close();
  // Give the daemon a beat to process the close.
  for (int attempt = 0;; ++attempt) {
    ServiceClient retry = h.Connect();
    if (retry.Ping(3, 1.0).ok()) break;
    ASSERT_LT(attempt, 50) << "slot never freed";
  }
  h.StopAndJoin();
  EXPECT_GE(h.daemon.stats().refused, 1u);
}

TEST(ServiceDaemonTest, DrainAnswersInFlightThenExitsCleanly) {
  DaemonHarness h;
  ServiceClient client = h.Connect();
  // Buffer several requests, then immediately request the drain: every
  // request already received must still be answered before the close.
  constexpr int kCount = 8;
  std::string burst;
  for (int i = 0; i < kCount; ++i) {
    burst += EncodeFrame(FrameType::kPredictRequest,
                         EncodePredictRequest(MakeRequest(200 + i, i, i)));
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());
  h.daemon.RequestDrain();
  int answered = 0;
  for (int i = 0; i < kCount; ++i) {
    Frame frame;
    if (!client.ReadFrame(frame, 10.0).ok()) break;
    if (frame.type == FrameType::kPredictResponse) ++answered;
  }
  h.loop.join();
  EXPECT_EQ(answered, kCount);
  EXPECT_TRUE(h.daemon.stats().drain_completed);
  EXPECT_EQ(h.daemon.stats().drain_forced_close, 0u);
  EXPECT_EQ(h.daemon.open_connections(), 0u);
}

TEST(ServiceDaemonTest, FaultInjectorFullScriptPasses) {
  DaemonOptions options;
  options.idle_timeout = 0.3;
  options.max_connections = 8;
  DaemonHarness h(options);
  SocketFaultOptions fo;
  fo.port = h.daemon.port();
  fo.doc = Doc(1);
  fo.connect_flood = 12;  // past max_connections: refusals must be typed
  fo.io_timeout = 5.0;
  Result<SocketFaultReport> report = RunSocketFaults(fo);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->resets_done, kSocketFaultResets);
  EXPECT_EQ(report->partial_frames_ok, kSocketFaultPartialWriteFrames);
  EXPECT_GT(report->typed_errors_received, 0);
  EXPECT_EQ(report->stalls_reaped, kSocketFaultMidFrameStalls);
  EXPECT_GT(report->flood_refused_typed + report->flood_refused_closed, 0);
  EXPECT_TRUE(report->liveness_ok);
  h.StopAndJoin();
  // Nothing leaked: every connection the script opened is gone.
  EXPECT_EQ(h.daemon.open_connections(), 0u);
}

TEST(ServiceDaemonTest, SocketLoadgenReplayIsCleanAndDeterministic) {
  DaemonHarness h;
  std::vector<SparseVector> catalog;
  for (uint32_t i = 0; i < 32; ++i) catalog.push_back(Doc(i));

  ServiceLoadOptions load;
  load.port = h.daemon.port();
  load.schedule.sessions = 6;
  load.schedule.min_docs = 4;
  load.schedule.max_docs = 8;
  load.schedule.arrival_rate = 500.0;
  load.schedule.seed = 20100913;

  Result<ServiceLoadResult> first = RunServiceLoad(load, catalog);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->load.offered, 0u);
  EXPECT_EQ(first->load.failed, 0u);
  EXPECT_EQ(first->io_errors, 0u);
  EXPECT_EQ(first->load.completed, first->load.offered);

  // Same schedule, same daemon, same catalog: the per-answer fingerprint
  // (latency excluded by design) must be bit-identical across runs.
  Result<ServiceLoadResult> second = RunServiceLoad(load, catalog);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->load.fingerprint, first->load.fingerprint);
}

constexpr long kDriverStallNanos = 300'000'000;

void StallThisThread(int) {
  struct timespec ts = {0, kDriverStallNanos};
  nanosleep(&ts, nullptr);  // async-signal-safe
}

// The replay's driver thread stalls for 300 ms (a signal handler sleeps on
// it) while requests fall due. Latency is timed from each request's due
// time, so the requests due during the stall report the wait: timed from
// the send, they would report only the ~1 ms the daemon took.
TEST(ServiceDaemonTest, SocketLoadgenLatencyCoversDriverStall) {
  DaemonHarness h;
  std::vector<SparseVector> catalog;
  for (uint32_t i = 0; i < 8; ++i) catalog.push_back(Doc(i));

  ServiceLoadOptions load;
  load.port = h.daemon.port();
  load.schedule.sessions = 1;
  load.schedule.min_docs = 40;
  load.schedule.max_docs = 40;
  load.schedule.arrival_rate = 100.0;  // due over ~0.4 s
  load.schedule.seed = 20100913;

  struct sigaction stall = {}, previous = {};
  stall.sa_handler = StallThisThread;
  sigemptyset(&stall.sa_mask);
  stall.sa_flags = SA_RESTART;
  ASSERT_EQ(sigaction(SIGUSR2, &stall, &previous), 0);
  const pthread_t driver = pthread_self();
  std::thread staller([driver] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    pthread_kill(driver, SIGUSR2);
  });
  Result<ServiceLoadResult> r = RunServiceLoad(load, catalog);
  staller.join();
  sigaction(SIGUSR2, &previous, nullptr);

  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->load.completed, 40u);
  EXPECT_EQ(r->load.failed, 0u);
  // The first request due after the stall began waited most of it.
  EXPECT_GE(r->load.max_latency, 0.2);
  EXPECT_GE(r->load.p95_latency, 0.1);
}

}  // namespace
}  // namespace p2pdt
