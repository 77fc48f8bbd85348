#include "net/conn.h"

#include <errno.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace p2pdt {

Connection::Connection(int fd, std::string peer_name)
    : fd_(fd), peer_name_(std::move(peer_name)) {}

Connection::~Connection() { CloseFd(); }

void Connection::CloseFd() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Connection::IoResult Connection::ReadIntoDecoder(std::size_t& bytes_read) {
  bytes_read = 0;
  char buf[16384];
  // Read no more than the decoder can hold. The caller drains complete
  // frames before the next read, and the level-triggered loop re-notifies
  // for whatever is still queued on the socket.
  for (std::size_t room = decoder_.room(); room > 0; room = decoder_.room()) {
    const ssize_t n = read(fd_, buf, std::min(sizeof(buf), room));
    if (n > 0) {
      bytes_read += static_cast<std::size_t>(n);
      if (!decoder_.Feed(buf, static_cast<std::size_t>(n))) {
        return IoResult::kOverflow;
      }
      continue;
    }
    if (n == 0) return IoResult::kEof;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
    if (errno == EINTR) continue;
    return IoResult::kError;
  }
  return IoResult::kOk;
}

void Connection::QueueWrite(const std::string& bytes) {
  // Compact lazily so the buffer stays bounded by outstanding bytes, not
  // by lifetime traffic.
  if (write_off_ > 0 && write_off_ >= write_buf_.size() / 2) {
    write_buf_.erase(0, write_off_);
    write_off_ = 0;
  }
  write_buf_ += bytes;
}

Connection::IoResult Connection::TryFlush(std::size_t& bytes_written) {
  bytes_written = 0;
  while (write_off_ < write_buf_.size()) {
    const ssize_t n = write(fd_, write_buf_.data() + write_off_,
                            write_buf_.size() - write_off_);
    if (n > 0) {
      write_off_ += static_cast<std::size_t>(n);
      bytes_written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return IoResult::kOk;
    }
    if (n < 0 && errno == EINTR) continue;
    return IoResult::kError;
  }
  if (write_off_ == write_buf_.size()) {
    write_buf_.clear();
    write_off_ = 0;
  }
  return IoResult::kOk;
}

}  // namespace p2pdt
