#include "net/daemon.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "common/logging.h"

namespace p2pdt {

namespace {

constexpr int kListenBacklog = 128;
/// Write-buffer watermarks: above high, the connection's reads pause
/// (backpressure); above the hard cap it is closed as a dead consumer.
constexpr std::size_t kWriteHighWatermark = 1u << 20;
constexpr std::size_t kWriteHardCap = 4u << 20;

/// Half-closes `fd` and discards up to 64 KiB of the request bytes it still
/// holds. Closing over unread bytes makes the kernel send RST instead of
/// FIN, and a RST can overtake the typed error frame just written; the FIN
/// goes out behind that frame instead. The cap keeps a client that never
/// stops sending from holding the loop.
void ShutdownAndDiscardInput(int fd) {
  shutdown(fd, SHUT_WR);
  char buf[4096];
  for (int i = 0; i < 16 && read(fd, buf, sizeof(buf)) > 0; ++i) {
  }
}

std::string PeerName(const struct sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = "?";
  inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

}  // namespace

ServiceDaemon::ServiceDaemon(DaemonOptions options, Dispatch dispatch)
    : options_(std::move(options)),
      dispatch_(std::move(dispatch)),
      serve_queue_(options_.serve) {
  if (options_.metrics != nullptr) {
    latency_hist_ = &options_.metrics->GetHistogram(
        "service_latency_seconds", {{"component", "p2pdtd"}});
  }
  loop_.OnWakeup([this] { BeginDrain(); });
}

ServiceDaemon::~ServiceDaemon() {
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    conn->CloseFd();
  }
  if (listen_fd_ >= 0) close(listen_fd_);
}

Status ServiceDaemon::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    return Status::IOError(std::string("bind: ") + strerror(errno));
  }
  if (listen(listen_fd_, kListenBacklog) != 0) {
    return Status::IOError(std::string("listen: ") + strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  &len) != 0) {
    return Status::IOError(std::string("getsockname: ") + strerror(errno));
  }
  port_ = ntohs(addr.sin_port);

  P2PDT_RETURN_IF_ERROR(loop_.Add(listen_fd_, EPOLLIN,
                                  [this](uint32_t ev) { HandleAccept(ev); }));
  P2PDT_LOG(Info) << "p2pdtd listening on " << options_.bind_address << ":"
                  << port_;
  return Status::OK();
}

void ServiceDaemon::Run() { loop_.Run(); }

void ServiceDaemon::RequestDrain() { loop_.Wakeup(); }

void ServiceDaemon::HandleAccept(uint32_t events) {
  if ((events & EPOLLIN) == 0) return;
  for (;;) {
    struct sockaddr_in addr;
    socklen_t len = sizeof(addr);
    const int fd =
        accept4(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr), &len,
                SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      // Transient accept errors (ECONNABORTED, EMFILE burst) must not kill
      // the daemon; log and keep serving existing connections.
      P2PDT_LOG(Warning) << "accept failed: " << strerror(errno);
      return;
    }
    if (conns_.size() >= options_.max_connections) {
      // Typed refusal, best effort: the fresh socket's send buffer is
      // empty, so the single small frame either goes out instantly or the
      // client only sees the close.
      ErrorReject reject;
      reject.code = WireError::kTooManyConnections;
      reject.message = "connection limit reached";
      const std::string frame =
          EncodeFrame(FrameType::kError, EncodeErrorReject(reject));
      [[maybe_unused]] ssize_t rc = write(fd, frame.data(), frame.size());
      ShutdownAndDiscardInput(fd);
      close(fd);
      ++stats_.refused;
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(fd, PeerName(addr));
    conn->last_activity = loop_.Now();
    Status added =
        loop_.Add(fd, EPOLLIN, [this, fd](uint32_t ev) {
          HandleConnEvent(fd, ev);
        });
    if (!added.ok()) {
      P2PDT_LOG(Warning) << "cannot watch accepted fd: " << added.ToString();
      continue;  // unique_ptr closes the fd
    }
    ArmIdleTimer(*conn);
    conns_.emplace(fd, std::move(conn));
    ++stats_.accepted;
  }
}

void ServiceDaemon::ArmIdleTimer(Connection& conn) {
  if (options_.idle_timeout <= 0.0) return;
  const int fd = conn.fd();
  conn.idle_timer = loop_.wheel().Arm(
      conn.last_activity + options_.idle_timeout, [this, fd] {
        auto it = conns_.find(fd);
        if (it == conns_.end()) return;
        Connection& c = *it->second;
        c.idle_timer = DeadlineWheel::kInvalidTimer;
        const double idle = loop_.Now() - c.last_activity;
        // One wheel tick of slack: deadlines are coarse by design.
        if (idle + 1e-9 >= options_.idle_timeout) {
          ++stats_.reaped_idle;
          P2PDT_LOG(Debug) << "reaping idle connection " << c.peer_name();
          CloseConn(fd);
        } else {
          ArmIdleTimer(c);
        }
      });
}

void ServiceDaemon::HandleConnEvent(int fd, uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    ++stats_.read_errors;
    CloseConn(fd);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    HandleWritable(conn);
    if (conns_.count(fd) == 0) return;
  }
  if ((events & EPOLLIN) != 0) HandleReadable(conn);
}

void ServiceDaemon::HandleReadable(Connection& conn) {
  const int fd = conn.fd();
  std::size_t bytes = 0;
  const Connection::IoResult io = conn.ReadIntoDecoder(bytes);
  if (bytes > 0) {
    stats_.bytes_in += bytes;
    conn.last_activity = loop_.Now();
  }
  if (!DrainFrames(conn)) return;  // connection closed on us
  switch (io) {
    case Connection::IoResult::kOk:
      break;
    case Connection::IoResult::kEof:
      // Peer finished sending. Anything already framed was dispatched by
      // DrainFrames; flush what remains and close.
      if (conn.write_empty()) {
        CloseConn(fd);
      } else {
        conn.close_after_flush = true;
        UpdateInterest(conn);
      }
      break;
    case Connection::IoResult::kError:
      // Abrupt reset — the fault injector's bread and butter. Only this
      // connection dies.
      ++stats_.read_errors;
      CloseConn(fd);
      break;
    case Connection::IoResult::kOverflow:
      ++stats_.malformed_frames;
      // Flag first: SendFrame closes the connection itself when the error
      // frame flushes in one write (the common case).
      conn.close_after_flush = true;
      conn.read_paused = true;
      SendError(conn, 0, WireError::kMalformed, "read buffer bound exceeded");
      break;
  }
}

bool ServiceDaemon::DrainFrames(Connection& conn) {
  const int fd = conn.fd();
  Frame frame;
  for (;;) {
    const FrameDecoder::Next verdict = conn.decoder().Poll(frame);
    if (verdict == FrameDecoder::Next::kNeedMore) return true;
    if (verdict != FrameDecoder::Next::kFrame) {
      // Header-level reject: the stream is unsynchronized. Answer with the
      // typed error (the length was rejected before any allocation), then
      // flush-and-close.
      if (verdict == FrameDecoder::Next::kOversized) {
        ++stats_.oversized_frames;
      } else {
        ++stats_.malformed_frames;
      }
      conn.close_after_flush = true;
      conn.read_paused = true;
      SendError(conn, 0, FrameDecoder::RejectToError(verdict),
                "unrecoverable framing error");
      return conns_.count(fd) != 0;
    }
    ++stats_.frames_in;
    ++conn.frames_in;
    DispatchFrame(conn, frame);
    if (conns_.count(fd) == 0) return false;
  }
}

void ServiceDaemon::DispatchFrame(Connection& conn, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kPredictRequest:
      ServePredict(conn, frame);
      return;
    case FrameType::kPing: {
      Result<uint64_t> token = DecodePingPayload(frame.payload);
      if (!token.ok()) {
        ++stats_.malformed_payloads;
        SendError(conn, 0, WireError::kMalformed, token.status().message());
        return;
      }
      ++stats_.pings;
      SendFrame(conn, FrameType::kPong, EncodePingPayload(*token));
      return;
    }
    case FrameType::kPredictResponse:
    case FrameType::kOverload:
    case FrameType::kError:
    case FrameType::kPong:
      break;
  }
  // Well-formed frame of a type only a server sends: a confused or hostile
  // client. Typed reject, then close — there is nothing sane to resume.
  ++stats_.unexpected_type;
  conn.close_after_flush = true;
  conn.read_paused = true;
  SendError(conn, 0, WireError::kUnexpectedType,
            std::string("server does not accept ") +
                FrameTypeToString(frame.type));
}

void ServiceDaemon::ServePredict(Connection& conn, const Frame& frame) {
  Result<PredictRequest> req = DecodePredictRequest(frame.payload);
  if (!req.ok()) {
    // Payload-level failure: the frame boundary held, so the stream is
    // still synchronized — reject this request, keep the connection.
    ++stats_.malformed_payloads;
    SendError(conn, 0, WireError::kMalformed, req.status().message());
    return;
  }
  ++stats_.requests;

  if (serve_queue_.options().enabled &&
      serve_queue_.options().admission_control) {
    const NodeId node = static_cast<NodeId>(
        req->requester % std::max<std::size_t>(options_.admission_nodes, 1));
    const Admission adm = serve_queue_.Admit(node, loop_.Now());
    if (adm.outcome != AdmitOutcome::kAccept) {
      ++stats_.shed;
      OverloadReject reject;
      reject.id = req->id;
      reject.reason = static_cast<uint8_t>(adm.outcome);
      reject.retry_after = adm.retry_after;
      SendFrame(conn, FrameType::kOverload, EncodeOverloadReject(reject));
      return;
    }
  }

  const double t0 = loop_.Now();
  P2PPrediction p = dispatch_(static_cast<NodeId>(req->requester), req->doc);
  const double elapsed = loop_.Now() - t0;
  if (latency_hist_ != nullptr) latency_hist_->Observe(elapsed);

  PredictResponse resp;
  resp.id = req->id;
  resp.success = p.success;
  resp.degraded = p.degraded;
  resp.cached = p.cached;
  resp.tags.reserve(p.tags.size());
  for (TagId t : p.tags) resp.tags.push_back(static_cast<uint32_t>(t));
  resp.scores = p.scores;
  if (!p.success) {
    ++stats_.served_failed;
  } else if (p.degraded) {
    ++stats_.served_degraded;
  } else {
    ++stats_.served_ok;
  }
  SendFrame(conn, FrameType::kPredictResponse, EncodePredictResponse(resp));
}

void ServiceDaemon::SendFrame(Connection& conn, FrameType type,
                              const std::string& payload) {
  const int fd = conn.fd();
  conn.QueueWrite(EncodeFrame(type, payload));
  ++stats_.frames_out;
  ++conn.frames_out;
  std::size_t written = 0;
  const Connection::IoResult io = conn.TryFlush(written);
  stats_.bytes_out += written;
  if (written > 0) conn.last_activity = loop_.Now();
  if (io == Connection::IoResult::kError) {
    ++stats_.read_errors;
    CloseConn(fd);
    return;
  }
  if (conn.write_buffered() > kWriteHardCap) {
    // The peer stopped draining entirely; cut it loose before its buffer
    // eats the process.
    ++stats_.slow_consumer_closed;
    CloseConn(fd);
    return;
  }
  if (!conn.read_paused &&
      conn.write_buffered() > kWriteHighWatermark) {
    conn.read_paused = true;  // backpressure: resume when drained
  }
  if (conn.write_empty() && conn.close_after_flush) {
    CloseConn(fd);
    return;
  }
  UpdateInterest(conn);
}

void ServiceDaemon::SendError(Connection& conn, uint64_t id, WireError code,
                              const std::string& message) {
  ErrorReject reject;
  reject.id = id;
  reject.code = code;
  reject.message = message;
  SendFrame(conn, FrameType::kError, EncodeErrorReject(reject));
}

void ServiceDaemon::HandleWritable(Connection& conn) {
  const int fd = conn.fd();
  std::size_t written = 0;
  const Connection::IoResult io = conn.TryFlush(written);
  stats_.bytes_out += written;
  if (written > 0) conn.last_activity = loop_.Now();
  if (io == Connection::IoResult::kError) {
    ++stats_.read_errors;
    CloseConn(fd);
    return;
  }
  if (conn.read_paused && !conn.close_after_flush &&
      conn.write_buffered() <= kWriteHighWatermark / 2) {
    conn.read_paused = false;  // backpressure released
  }
  if (conn.write_empty() && conn.close_after_flush) {
    CloseConn(fd);
    return;
  }
  UpdateInterest(conn);
}

void ServiceDaemon::UpdateInterest(Connection& conn) {
  uint32_t events = 0;
  if (!conn.read_paused && !conn.close_after_flush) events |= EPOLLIN;
  if (!conn.write_empty()) events |= EPOLLOUT;
  loop_.Modify(conn.fd(), events);
}

void ServiceDaemon::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if (conn.idle_timer != DeadlineWheel::kInvalidTimer) {
    loop_.wheel().Cancel(conn.idle_timer);
  }
  // A stream closed on our initiative after its last answer (poisoned,
  // drained or finished) may still hold unread bytes.
  if (conn.close_after_flush) ShutdownAndDiscardInput(fd);
  loop_.Remove(fd);
  conns_.erase(it);  // destructor closes the fd
  ++stats_.closed;
  FinishDrainIfIdle();
}

void ServiceDaemon::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  drain_started_ = loop_.Now();
  P2PDT_LOG(Info) << "p2pdtd drain: stop accepting, finishing "
                  << conns_.size() << " connection(s)";
  // 1. Stop accepting.
  if (listen_fd_ >= 0) {
    loop_.Remove(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // 2. One final read pass per connection: everything the kernel already
  //    buffered counts as in-flight and gets served; then flush-and-close.
  //    (Snapshot the fds — serving may close connections mid-walk.)
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Connection& conn = *it->second;
    HandleReadable(conn);
    auto again = conns_.find(fd);
    if (again == conns_.end()) continue;
    Connection& still = *again->second;
    if (still.write_empty()) {
      CloseConn(fd);
    } else {
      still.close_after_flush = true;
      still.read_paused = true;
      UpdateInterest(still);
    }
  }
  // 3. Force the stragglers at the deadline.
  drain_timer_ = loop_.wheel().Arm(
      drain_started_ + options_.drain_timeout, [this] {
        drain_timer_ = DeadlineWheel::kInvalidTimer;
        if (!conns_.empty()) {
          stats_.drain_forced_close += conns_.size();
          P2PDT_LOG(Warning) << "drain deadline: force-closing "
                             << conns_.size() << " connection(s)";
          std::vector<int> fds;
          for (const auto& [fd, conn] : conns_) fds.push_back(fd);
          for (int fd : fds) CloseConn(fd);
        }
        FinishDrainIfIdle();
      });
  FinishDrainIfIdle();
}

void ServiceDaemon::FinishDrainIfIdle() {
  if (!draining_ || !conns_.empty()) return;
  if (drain_timer_ != DeadlineWheel::kInvalidTimer) {
    loop_.wheel().Cancel(drain_timer_);
    drain_timer_ = DeadlineWheel::kInvalidTimer;
  }
  stats_.drain_completed = stats_.drain_forced_close == 0;
  P2PDT_LOG(Info) << "p2pdtd drain complete (forced="
                  << stats_.drain_forced_close << ")";
  loop_.Stop();
}

}  // namespace p2pdt
