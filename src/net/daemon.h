#ifndef P2PDT_NET_DAEMON_H_
#define P2PDT_NET_DAEMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/metrics.h"
#include "common/status.h"
#include "net/conn.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "p2pml/p2p_classifier.h"
#include "p2psim/serve_queue.h"

namespace p2pdt {

struct DaemonOptions {
  /// Listen address. Port 0 binds an ephemeral port (read it back via
  /// port() after Start — how the tests and bench avoid collisions).
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;
  /// Accept cap; connections beyond it get a typed kTooManyConnections
  /// error frame (best effort) and an immediate close.
  std::size_t max_connections = 256;
  /// Connections with no read/write progress for this long are reaped —
  /// the slowloris defense. <= 0 disables reaping.
  double idle_timeout = 30.0;
  /// Grace period for RequestDrain() to finish in-flight work and flush.
  double drain_timeout = 10.0;
  /// Wall-clock admission control (the PR 8 serving-queue discipline lifted
  /// onto real time): when enabled+admission_control, excess predict
  /// requests get a typed kOverload frame with retry-after instead of
  /// queueing without bound.
  ServeOptions serve;
  /// Modulo domain mapping the wire's requester id onto serving queues.
  std::size_t admission_nodes = 64;
  /// Optional metrics sink for the service latency histogram; the event
  /// counts live in DaemonStats.
  MetricsRegistry* metrics = nullptr;
};

/// Crash-tolerance counters, readable after Run() returns (and internally
/// consistent at any point from the loop thread). The daemon's one home for
/// event counts: the registry holds only its latency histogram.
struct DaemonStats {
  uint64_t accepted = 0;
  uint64_t refused = 0;  // over max_connections
  uint64_t closed = 0;
  uint64_t reaped_idle = 0;
  uint64_t read_errors = 0;  // ECONNRESET and friends (abrupt RST)
  uint64_t malformed_frames = 0;   // header-level rejects
  uint64_t malformed_payloads = 0; // frame parsed, payload did not
  uint64_t oversized_frames = 0;
  uint64_t unexpected_type = 0;
  uint64_t requests = 0;
  uint64_t served_ok = 0;
  uint64_t served_degraded = 0;
  uint64_t served_failed = 0;
  uint64_t shed = 0;
  uint64_t pings = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t slow_consumer_closed = 0;
  uint64_t drain_forced_close = 0;
  /// True when a drain finished inside drain_timeout with every in-flight
  /// response flushed.
  bool drain_completed = false;
};

/// `p2pdtd` — the epoll service daemon. Serves the CEMPaR/PACE predict
/// path over real TCP sockets using the frame codec; single-threaded by
/// design (the classifier and simulator are driver-thread-only, and the
/// event loop IS that driver thread).
///
/// Robustness contract, exercised by SocketFaultInjector:
///  - malformed / oversized / zero frames answered with a typed error
///    frame, then flush-and-close; lengths are checked before allocation
///  - abrupt peer resets and mid-frame EOFs only close that connection
///  - idle and mid-frame-stalled (slowloris) connections are reaped on the
///    deadline wheel within idle_timeout (+ one wheel tick)
///  - connect floods beyond max_connections are refused with a typed error
///  - slow consumers are flow-controlled (read pause above the write
///    high-watermark, EPOLLOUT re-armed until drained) and cut at the cap
///  - RequestDrain (SIGTERM path): stop accepting, serve every request
///    already received, flush, close, Run() returns with
///    stats().drain_completed == true
class ServiceDaemon {
 public:
  /// Dispatch runs on the loop thread and answers one predict request —
  /// the bridge into CEMPaR/PACE (see ServiceHost). It must not block on
  /// the network; it may compute (that wall time is the honest service
  /// latency the histogram records).
  using Dispatch = std::function<P2PPrediction(NodeId, const SparseVector&)>;

  ServiceDaemon(DaemonOptions options, Dispatch dispatch);
  ~ServiceDaemon();

  /// Binds, listens, registers with the loop. Fills port().
  Status Start();

  /// The bound port (valid after Start).
  uint16_t port() const { return port_; }

  /// Serves until a drain completes (or is forced at the deadline).
  /// Call from the thread that owns the classifier.
  void Run();

  /// Begins a graceful drain; safe from any thread and from signal
  /// handlers (self-pipe). Idempotent.
  void RequestDrain();

  const DaemonStats& stats() const { return stats_; }
  std::size_t open_connections() const { return conns_.size(); }
  bool draining() const { return draining_; }

 private:
  void HandleAccept(uint32_t events);
  void HandleConnEvent(int fd, uint32_t events);
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  /// Decodes + dispatches every complete frame buffered on `conn`.
  /// Returns false when the connection was closed.
  bool DrainFrames(Connection& conn);
  void DispatchFrame(Connection& conn, const Frame& frame);
  void ServePredict(Connection& conn, const Frame& frame);
  void SendFrame(Connection& conn, FrameType type, const std::string& payload);
  void SendError(Connection& conn, uint64_t id, WireError code,
                 const std::string& message);
  /// Recomputes the epoll interest mask from buffer state (EPOLLOUT armed
  /// only while bytes are queued; EPOLLIN dropped while paused/closing).
  void UpdateInterest(Connection& conn);
  void CloseConn(int fd);
  void ArmIdleTimer(Connection& conn);
  void BeginDrain();
  void FinishDrainIfIdle();

  DaemonOptions options_;
  Dispatch dispatch_;
  EpollLoop loop_;
  ServeQueueSet serve_queue_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool draining_ = false;
  double drain_started_ = 0.0;
  DeadlineWheel::TimerId drain_timer_ = DeadlineWheel::kInvalidTimer;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  DaemonStats stats_;
  Histogram* latency_hist_ = nullptr;
};

}  // namespace p2pdt

#endif  // P2PDT_NET_DAEMON_H_
