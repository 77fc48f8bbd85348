#ifndef P2PDT_NET_SOCKET_FAULT_H_
#define P2PDT_NET_SOCKET_FAULT_H_

#include <cstdint>
#include <string>

#include "common/sparse_vector.h"
#include "common/status.h"

namespace p2pdt {

/// The fixed script of RunSocketFaults. It always runs the malformed-bytes
/// set (bad magic, bad type, zero payload, oversized length, truncated
/// header + close, garbage payload), then:
///
/// Connections reset abruptly (SO_LINGER{1,0} → RST) at varied points:
/// before any bytes, mid-request, and after a served response.
inline constexpr int kSocketFaultResets = 9;
/// Valid frames delivered one byte at a time (worst-case fragmentation);
/// each must still round-trip bit-identically.
inline constexpr int kSocketFaultPartialWriteFrames = 6;
/// Connections that send a partial frame (header or payload prefix) and
/// then go silent — the slowloris shape. They are left open; the caller
/// decides whether to wait out the daemon's idle reaper.
inline constexpr int kSocketFaultMidFrameStalls = 4;

/// Scripted socket-level abuse against a live p2pdtd instance. Each scenario
/// attacks one robustness claim; the report records what the daemon answered
/// and whether it stayed alive. A scenario failing to elicit the documented
/// response (typed error frame, refusal, survival ping) fails the run — the
/// injector is an oracle, not just a traffic source.
struct SocketFaultOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  uint64_t seed = 0xFA17;

  /// Simultaneous extra connections held open to push past the daemon's
  /// max_connections cap; refusals must be typed.
  int connect_flood = 0;

  /// A well-formed document for the valid requests the faults interleave
  /// with (empty is fine — the daemon predicts on whatever it is handed).
  SparseVector doc;
  double io_timeout = 5.0;
};

struct SocketFaultReport {
  int resets_done = 0;
  int stalls_opened = 0;
  int stalls_reaped = 0;  // daemon closed them (observed EOF/RST client-side)
  int partial_frames_ok = 0;
  int malformed_sent = 0;
  int typed_errors_received = 0;  // kError frames answering the abuse
  int flood_attempted = 0;
  int flood_accepted = 0;
  int flood_refused_typed = 0;  // refusal carried kTooManyConnections
  int flood_refused_closed = 0; // refusal visible only as a close
  int predicts_ok = 0;          // valid requests served amid the faults
  /// Final fresh-connection ping round-trip succeeded: the daemon survived
  /// everything above.
  bool liveness_ok = false;
};

/// Runs every enabled scenario in a deterministic order. Returns the report,
/// or an error when the daemon violated the robustness contract (wrong or
/// missing typed response, failed liveness probe).
Result<SocketFaultReport> RunSocketFaults(const SocketFaultOptions& options);

}  // namespace p2pdt

#endif  // P2PDT_NET_SOCKET_FAULT_H_
