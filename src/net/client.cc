#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "net/event_loop.h"  // MonotonicSeconds

namespace p2pdt {

namespace {

Status SetBlocking(int fd, bool blocking) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Status::IOError("fcntl(F_GETFL) failed");
  const int want = blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
  if (want != flags && fcntl(fd, F_SETFL, want) < 0) {
    return Status::IOError("fcntl(F_SETFL) failed");
  }
  return Status::OK();
}

}  // namespace

ServiceClient::ServiceClient() = default;

ServiceClient::~ServiceClient() { Close(); }

ServiceClient::ServiceClient(ServiceClient&& other) noexcept
    : fd_(other.fd_), eof_(other.eof_), decoder_(std::move(other.decoder_)) {
  other.fd_ = -1;
  other.eof_ = false;
}

ServiceClient& ServiceClient::operator=(ServiceClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    eof_ = other.eof_;
    decoder_ = std::move(other.decoder_);
    other.fd_ = -1;
    other.eof_ = false;
  }
  return *this;
}

void ServiceClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

void ServiceClient::AbortiveClose() {
  if (fd_ < 0) return;
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  Close();
}

Status ServiceClient::Connect(const std::string& host, uint16_t port,
                              double timeout_seconds) {
  Close();
  eof_ = false;
  decoder_ = FrameDecoder();

  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host address: " + host);
  }
  int rc = connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const Status st =
        Status::IOError(std::string("connect: ") + strerror(errno));
    Close();
    return st;
  }
  if (rc != 0) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int timeout_ms = static_cast<int>(timeout_seconds * 1e3);
    rc = poll(&pfd, 1, timeout_ms);
    if (rc <= 0) {
      Close();
      return Status::Unavailable("connect timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      Close();
      return Status::IOError(std::string("connect: ") +
                             strerror(err != 0 ? err : errno));
    }
  }
  Status st = SetBlocking(fd_, true);
  if (!st.ok()) {
    Close();
    return st;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

Status ServiceClient::SendRaw(const std::string& bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = send(fd_, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError(std::string("send: ") + strerror(errno));
  }
  return Status::OK();
}

Status ServiceClient::SendFrame(FrameType type, const std::string& payload) {
  return SendRaw(EncodeFrame(type, payload));
}

Status ServiceClient::ReadAvailable() {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  char buf[16384];
  for (;;) {
    const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      if (!decoder_.Feed(buf, static_cast<std::size_t>(n))) {
        return Status::DataLoss("frame decoder rejected the stream");
      }
      continue;
    }
    if (n == 0 || (n < 0 && errno == ECONNRESET)) {
      // A close (FIN, or RST when the server closed over unread bytes) can
      // arrive in the same wakeup as the frames before it, such as a typed
      // error. Record it; callers surface the close only once the decoder
      // is dry.
      eof_ = true;
      return Status::OK();
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    if (errno == EINTR) continue;
    return Status::IOError(std::string("recv: ") + strerror(errno));
  }
}

bool ServiceClient::PollFrame(Frame& out) {
  return decoder_.Poll(out) == FrameDecoder::Next::kFrame;
}

Status ServiceClient::ReadFrame(Frame& out, double timeout_seconds) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  const double deadline = MonotonicSeconds() + timeout_seconds;
  for (;;) {
    const FrameDecoder::Next verdict = decoder_.Poll(out);
    if (verdict == FrameDecoder::Next::kFrame) return Status::OK();
    if (verdict != FrameDecoder::Next::kNeedMore) {
      return Status::DataLoss(std::string("protocol violation from server: ") +
                              WireErrorToString(
                                  FrameDecoder::RejectToError(verdict)));
    }
    if (eof_) return Status::IOError("connection closed by server");
    const double remaining = deadline - MonotonicSeconds();
    if (remaining <= 0.0) return Status::Unavailable("read timed out");
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = poll(&pfd, 1, static_cast<int>(remaining * 1e3) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return Status::Unavailable("read timed out");
    P2PDT_RETURN_IF_ERROR(ReadAvailable());
  }
}

Status ServiceClient::Predict(const PredictRequest& request,
                              PredictOutcome& out, double timeout_seconds) {
  P2PDT_RETURN_IF_ERROR(
      SendFrame(FrameType::kPredictRequest, EncodePredictRequest(request)));
  Frame frame;
  P2PDT_RETURN_IF_ERROR(ReadFrame(frame, timeout_seconds));
  switch (frame.type) {
    case FrameType::kPredictResponse: {
      Result<PredictResponse> resp = DecodePredictResponse(frame.payload);
      P2PDT_RETURN_IF_ERROR(resp.status());
      out.kind = PredictOutcome::Kind::kResponse;
      out.response = std::move(*resp);
      return Status::OK();
    }
    case FrameType::kOverload: {
      Result<OverloadReject> rej = DecodeOverloadReject(frame.payload);
      P2PDT_RETURN_IF_ERROR(rej.status());
      out.kind = PredictOutcome::Kind::kOverload;
      out.overload = *rej;
      return Status::OK();
    }
    case FrameType::kError: {
      Result<ErrorReject> rej = DecodeErrorReject(frame.payload);
      P2PDT_RETURN_IF_ERROR(rej.status());
      out.kind = PredictOutcome::Kind::kError;
      out.error = std::move(*rej);
      return Status::OK();
    }
    default:
      return Status::DataLoss(std::string("unexpected frame type: ") +
                              FrameTypeToString(frame.type));
  }
}

Status ServiceClient::Ping(uint64_t token, double timeout_seconds) {
  P2PDT_RETURN_IF_ERROR(
      SendFrame(FrameType::kPing, EncodePingPayload(token)));
  Frame frame;
  P2PDT_RETURN_IF_ERROR(ReadFrame(frame, timeout_seconds));
  if (frame.type != FrameType::kPong) {
    return Status::DataLoss(std::string("expected kPong, got ") +
                            FrameTypeToString(frame.type));
  }
  Result<uint64_t> echoed = DecodePingPayload(frame.payload);
  P2PDT_RETURN_IF_ERROR(echoed.status());
  if (*echoed != token) {
    return Status::DataLoss("pong token mismatch");
  }
  return Status::OK();
}

}  // namespace p2pdt
