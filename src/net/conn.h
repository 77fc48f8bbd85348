#ifndef P2PDT_NET_CONN_H_
#define P2PDT_NET_CONN_H_

#include <cstdint>
#include <string>

#include "net/deadline_wheel.h"
#include "net/frame.h"

namespace p2pdt {

/// One accepted service connection: a non-blocking fd plus bounded read and
/// write buffers and the framing decoder. The daemon drives the state
/// machine:
///
///   open ──backpressure──▶ read-paused ──buffer drained──▶ open
///     │                                                      │
///     ├─ protocol error / drain ─▶ flush-then-close ─▶ closed
///     └─ idle deadline / RST / write-cap breach ─────▶ closed
///
/// Bounds, all enforced here: the decoder caps buffered request bytes at
/// one max-size frame; the write buffer pauses reads above the high
/// watermark (EPOLLIN dropped, re-armed when drained — backpressure instead
/// of unbounded growth) and the connection is closed outright above the
/// hard cap (a consumer that never drains is a slowloris on the write
/// side).
class Connection {
 public:
  Connection(int fd, std::string peer_name);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  enum class IoResult : uint8_t {
    kOk = 0,     // progressed; buffers may hold more work
    kEof,        // peer closed its write side
    kError,      // fatal socket error (ECONNRESET et al.)
    kOverflow,   // decoder buffer bound exceeded
  };

  int fd() const { return fd_; }
  const std::string& peer_name() const { return peer_name_; }

  /// Reads the socket into the frame decoder until EAGAIN / EOF / error,
  /// or until the decoder is full (the caller drains frames, then the next
  /// readiness event reads the rest).
  IoResult ReadIntoDecoder(std::size_t& bytes_read);

  FrameDecoder& decoder() { return decoder_; }

  /// Appends bytes to the write buffer (no I/O; call TryFlush after).
  void QueueWrite(const std::string& bytes);

  /// Writes as much of the buffer as the socket accepts.
  IoResult TryFlush(std::size_t& bytes_written);

  std::size_t write_buffered() const { return write_buf_.size() - write_off_; }
  bool write_empty() const { return write_buffered() == 0; }

  /// Closes the fd (idempotent).
  void CloseFd();
  bool closed() const { return fd_ < 0; }

  // --- daemon-managed state --------------------------------------------
  bool close_after_flush = false;  // finish writes, then close
  bool read_paused = false;        // EPOLLIN dropped for backpressure
  double last_activity = 0.0;      // loop-clock time of last I/O progress
  DeadlineWheel::TimerId idle_timer = DeadlineWheel::kInvalidTimer;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;

 private:
  int fd_;
  std::string peer_name_;
  FrameDecoder decoder_;
  std::string write_buf_;
  std::size_t write_off_ = 0;
};

}  // namespace p2pdt

#endif  // P2PDT_NET_CONN_H_
