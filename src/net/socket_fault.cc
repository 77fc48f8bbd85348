#include "net/socket_fault.h"

#include <poll.h>

#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "ml/serialization.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/frame.h"

namespace p2pdt {

namespace {

std::string U32Le(uint32_t v) {
  std::string out;
  wire::PutU32(v, out);
  return out;
}

/// Raw frame bytes with full control over every header field.
std::string RawFrame(uint32_t magic, uint8_t type, uint32_t declared_len,
                     const std::string& payload) {
  std::string out = U32Le(magic);
  out.push_back(static_cast<char>(type));
  out += U32Le(declared_len);
  out += payload;
  return out;
}

Status ExpectTypedError(ServiceClient& client, WireError want,
                        double timeout, SocketFaultReport& report) {
  Frame frame;
  P2PDT_RETURN_IF_ERROR(client.ReadFrame(frame, timeout));
  if (frame.type != FrameType::kError) {
    return Status::DataLoss(std::string("expected kError frame, got ") +
                            FrameTypeToString(frame.type));
  }
  Result<ErrorReject> reject = DecodeErrorReject(frame.payload);
  P2PDT_RETURN_IF_ERROR(reject.status());
  if (reject->code != want) {
    return Status::DataLoss(std::string("expected wire error ") +
                            WireErrorToString(want) + ", got " +
                            WireErrorToString(reject->code));
  }
  ++report.typed_errors_received;
  return Status::OK();
}

/// Reads until EOF or deadline; EOF (the daemon closing on us) is the
/// expected epilogue after a poisoning reject.
bool DrainToEof(ServiceClient& client, double timeout) {
  const double deadline = MonotonicSeconds() + timeout;
  Frame frame;
  while (MonotonicSeconds() < deadline) {
    const Status st = client.ReadFrame(frame, deadline - MonotonicSeconds());
    if (!st.ok()) return st.code() == StatusCode::kIOError;
  }
  return false;
}

/// Connects once the daemon has a free connection slot: each attempt pings,
/// and a typed kTooManyConnections refusal retries after 10 ms until
/// io_timeout runs out.
Status ConnectWhenSlotFree(ServiceClient& client,
                           const SocketFaultOptions& options) {
  const double deadline = MonotonicSeconds() + options.io_timeout;
  for (;;) {
    P2PDT_RETURN_IF_ERROR(
        client.Connect(options.host, options.port, options.io_timeout));
    P2PDT_RETURN_IF_ERROR(
        client.SendFrame(FrameType::kPing, EncodePingPayload(0x5107)));
    Frame frame;
    P2PDT_RETURN_IF_ERROR(client.ReadFrame(frame, options.io_timeout));
    if (frame.type == FrameType::kPong) return Status::OK();
    Result<ErrorReject> reject = DecodeErrorReject(frame.payload);
    const bool refused = frame.type == FrameType::kError && reject.ok() &&
                         reject->code == WireError::kTooManyConnections;
    if (!refused || MonotonicSeconds() >= deadline) {
      return Status::DataLoss(std::string("no free connection slot: got ") +
                              FrameTypeToString(frame.type));
    }
    client.Close();
    poll(nullptr, 0, 10);
  }
}

Status OnePredict(ServiceClient& client, const SocketFaultOptions& options,
                  uint64_t id, SocketFaultReport& report) {
  PredictRequest request;
  request.id = id;
  request.requester = id;
  request.doc = options.doc;
  ServiceClient::PredictOutcome outcome;
  P2PDT_RETURN_IF_ERROR(client.Predict(request, outcome, options.io_timeout));
  if (outcome.kind == ServiceClient::PredictOutcome::Kind::kError) {
    return Status::DataLoss("valid request answered with protocol error: " +
                            outcome.error.message);
  }
  // An overload shed is a legitimate answer under pressure; only count
  // full-service responses with the echoed id as "ok".
  if (outcome.kind == ServiceClient::PredictOutcome::Kind::kResponse) {
    if (outcome.response.id != id) {
      return Status::DataLoss("response id mismatch");
    }
    ++report.predicts_ok;
  }
  return Status::OK();
}

Status RunMalformedSet(const SocketFaultOptions& options,
                       SocketFaultReport& report) {
  const std::string valid_ping = EncodePingPayload(0xBEEF);

  struct Case {
    const char* name;
    std::string bytes;
    WireError want;
    bool poisons;  // daemon closes the stream after the typed error
  };
  std::vector<Case> cases;
  cases.push_back({"bad magic",
                   RawFrame(0x58585858u, 5, 8, valid_ping),
                   WireError::kBadMagic, true});
  cases.push_back({"bad type",
                   RawFrame(kFrameMagic, 99, 8, valid_ping),
                   WireError::kBadType, true});
  cases.push_back({"zero payload", RawFrame(kFrameMagic, 5, 0, ""),
                   WireError::kZeroPayload, true});
  cases.push_back({"oversized length",
                   RawFrame(kFrameMagic, 1,
                            static_cast<uint32_t>(kMaxFramePayload) + 1, ""),
                   WireError::kOversized, true});
  cases.push_back({"garbage payload",
                   RawFrame(kFrameMagic, 1, 4, std::string("\x7f\x00\x33\x44", 4)),
                   WireError::kMalformed, false});

  for (const Case& c : cases) {
    ServiceClient client;
    P2PDT_RETURN_IF_ERROR(
        client.Connect(options.host, options.port, options.io_timeout));
    P2PDT_RETURN_IF_ERROR(client.SendRaw(c.bytes));
    ++report.malformed_sent;
    Status st = ExpectTypedError(client, c.want, options.io_timeout, report);
    if (!st.ok()) {
      return Status::DataLoss(std::string(c.name) + ": " + st.message());
    }
    if (c.poisons) {
      if (!DrainToEof(client, options.io_timeout)) {
        return Status::DataLoss(std::string(c.name) +
                                ": daemon did not close a poisoned stream");
      }
    } else {
      // Payload-level reject must NOT poison the stream: the same
      // connection serves a valid ping right after.
      P2PDT_RETURN_IF_ERROR(client.Ping(0xA11EE, options.io_timeout));
    }
  }

  // Truncated header then close: not enough bytes for a verdict, so no
  // error frame is owed; the daemon just reaps the close.
  {
    ServiceClient client;
    P2PDT_RETURN_IF_ERROR(
        client.Connect(options.host, options.port, options.io_timeout));
    P2PDT_RETURN_IF_ERROR(client.SendRaw(std::string("P2DF\x01", 5)));
    ++report.malformed_sent;
    client.Close();
  }
  return Status::OK();
}

Status RunResets(const SocketFaultOptions& options,
                 SocketFaultReport& report) {
  const std::string request_bytes = EncodeFrame(
      FrameType::kPredictRequest, EncodePredictRequest([&] {
        PredictRequest r;
        r.id = 0x5E7;
        r.requester = 7;
        r.doc = options.doc;
        return r;
      }()));
  for (int i = 0; i < kSocketFaultResets; ++i) {
    ServiceClient client;
    P2PDT_RETURN_IF_ERROR(
        client.Connect(options.host, options.port, options.io_timeout));
    switch (i % 3) {
      case 0:  // RST with no bytes sent
        break;
      case 1:  // RST mid-frame
        P2PDT_RETURN_IF_ERROR(
            client.SendRaw(request_bytes.substr(0, request_bytes.size() / 2)));
        break;
      case 2:  // RST right after being served
        P2PDT_RETURN_IF_ERROR(
            OnePredict(client, options, 0x1000u + static_cast<uint64_t>(i),
                       report));
        break;
    }
    client.AbortiveClose();
    ++report.resets_done;
  }
  return Status::OK();
}

Status RunPartialWrites(const SocketFaultOptions& options,
                        SocketFaultReport& report) {
  Rng rng(DeriveSeed(options.seed, 0x9A37));
  for (int i = 0; i < kSocketFaultPartialWriteFrames; ++i) {
    ServiceClient client;
    P2PDT_RETURN_IF_ERROR(
        client.Connect(options.host, options.port, options.io_timeout));
    PredictRequest request;
    request.id = 0x2000u + static_cast<uint64_t>(i);
    request.requester = request.id;
    request.doc = options.doc;
    const std::string bytes =
        EncodeFrame(FrameType::kPredictRequest, EncodePredictRequest(request));
    // Drip the frame in 1..3-byte slivers: worst-case TCP fragmentation.
    std::size_t off = 0;
    while (off < bytes.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          static_cast<std::size_t>(1 + rng.UniformInt(0, 2)),
          bytes.size() - off);
      P2PDT_RETURN_IF_ERROR(client.SendRaw(bytes.substr(off, chunk)));
      off += chunk;
    }
    ServiceClient::PredictOutcome outcome;
    Frame frame;
    P2PDT_RETURN_IF_ERROR(client.ReadFrame(frame, options.io_timeout));
    if (frame.type == FrameType::kError) {
      return Status::DataLoss("dripped valid frame was rejected");
    }
    ++report.partial_frames_ok;
    if (frame.type == FrameType::kPredictResponse) ++report.predicts_ok;
  }
  return Status::OK();
}

Status RunFlood(const SocketFaultOptions& options,
                SocketFaultReport& report) {
  std::vector<ServiceClient> horde(
      static_cast<std::size_t>(options.connect_flood));
  for (ServiceClient& client : horde) {
    ++report.flood_attempted;
    const Status st =
        client.Connect(options.host, options.port, options.io_timeout);
    if (!st.ok()) {
      // Kernel-level refusal (backlog overflow) — still a bounded outcome.
      ++report.flood_refused_closed;
      continue;
    }
    const Status ping = client.Ping(0xF100D, options.io_timeout);
    if (ping.ok()) {
      ++report.flood_accepted;
      continue;
    }
    // The refusal is either the typed kTooManyConnections frame or a bare
    // close racing ahead of our read.
    if (ping.code() == StatusCode::kDataLoss ||
        ping.code() == StatusCode::kIOError) {
      if (ping.code() == StatusCode::kDataLoss) {
        ++report.flood_refused_typed;
        ++report.typed_errors_received;
      } else {
        ++report.flood_refused_closed;
      }
      client.Close();
      continue;
    }
    return Status::DataLoss("flood connection neither served nor refused: " +
                            ping.ToString());
  }
  // Holding the horde open until here is the point: the cap must bind
  // while they are all simultaneously alive.
  return Status::OK();
}

}  // namespace

Result<SocketFaultReport> RunSocketFaults(const SocketFaultOptions& options) {
  SocketFaultReport report;

  P2PDT_RETURN_IF_ERROR(RunMalformedSet(options, report));
  P2PDT_RETURN_IF_ERROR(RunResets(options, report));
  P2PDT_RETURN_IF_ERROR(RunPartialWrites(options, report));

  // Slowloris stalls: open, send a partial header, go silent. Left open —
  // the daemon's deadline wheel owns their fate; callers with a short
  // idle_timeout can observe stalls_reaped via the EOF poll below.
  std::vector<ServiceClient> stalled(
      static_cast<std::size_t>(kSocketFaultMidFrameStalls));
  for (ServiceClient& client : stalled) {
    P2PDT_RETURN_IF_ERROR(
        client.Connect(options.host, options.port, options.io_timeout));
    P2PDT_RETURN_IF_ERROR(client.SendRaw(std::string("P2DF\x05", 5)));
    ++report.stalls_opened;
  }

  if (options.connect_flood > 0) {
    P2PDT_RETURN_IF_ERROR(RunFlood(options, report));
  }

  // Survival probe: a fresh connection must still get full service. The
  // daemon frees a closed flood connection's slot only once it reads the
  // close, so until io_timeout a typed kTooManyConnections refusal means
  // "no slot yet", not "dead".
  {
    ServiceClient client;
    P2PDT_RETURN_IF_ERROR(ConnectWhenSlotFree(client, options));
    P2PDT_RETURN_IF_ERROR(
        client.Ping(DeriveSeed(options.seed, 0x11FE), options.io_timeout));
    P2PDT_RETURN_IF_ERROR(OnePredict(client, options, 0x3000u, report));
    report.liveness_ok = true;
  }

  // Wait out the reaper: the daemon owes every stalled connection an EOF
  // (or RST) within its idle deadline. The wait budget is io_timeout, so
  // callers set io_timeout > the daemon's idle_timeout to observe reaps.
  const double reap_deadline = MonotonicSeconds() + options.io_timeout;
  for (ServiceClient& client : stalled) {
    while (MonotonicSeconds() < reap_deadline) {
      struct pollfd pfd;
      pfd.fd = client.fd();
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int wait_ms = static_cast<int>(
                              (reap_deadline - MonotonicSeconds()) * 1e3) +
                          1;
      if (poll(&pfd, 1, wait_ms) <= 0) break;  // deadline, not reaped
      const Status st = client.ReadAvailable();
      if (client.eof() || !st.ok()) {
        ++report.stalls_reaped;
        break;
      }
    }
    client.Close();
  }

  return report;
}

}  // namespace p2pdt
