#ifndef SERVEBENCH_DRIVER_H_
#define SERVEBENCH_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sparse_vector.h"

namespace servebench {

/// Connections the client drives (the host has 4 cores).
constexpr std::size_t kConnections = 4;

/// One precomputed tagging request. The connection it travels on is
/// `requester % kConnections`, so the daemon-side dispatch record can be
/// joined back to the client's record by connection and order.
struct Request {
  const p2pdt::SparseVector* doc = nullptr;
  uint64_t requester = 0;
  /// Open loop only: due time in seconds after the driver starts.
  double offset = 0.0;
};

/// What the client saw for one request. Times are MonotonicSeconds(), the
/// same steady clock the daemon's loop uses.
struct Answer {
  /// When the request was due: its schedule slot (open loop) or the moment
  /// its window slot freed (closed loop). Latency runs from here.
  double due = 0.0;
  double sent = 0.0;
  double answered = 0.0;
  bool ok = false;
  std::vector<uint32_t> tags;  // sorted
};

struct DriverOptions {
  /// Open loop sends each request at its offset, whatever is outstanding;
  /// closed loop keeps `window` requests in flight per connection.
  bool open_loop = false;
  std::size_t window = 16;
  /// Answers naming a tag id at or above this fail validation.
  uint32_t num_tags = 0;
  /// Self-test hook: the generator sleeps `stall_seconds` before sending
  /// the first request due at or after `stall_at` (open loop).
  double stall_at = -1.0;
  double stall_seconds = 0.0;
};

struct DriverResult {
  std::vector<Answer> answers;  // parallel to the request list
  std::size_t failed = 0;
  std::vector<std::string> errors;  // the first few validation failures
  /// Order-independent digest of every answer's tags and score bits.
  uint64_t fingerprint = 0;
  double start = 0.0;  // first due time
  double end = 0.0;    // last answer
};

/// Drives `requests` against a p2pdtd-protocol server on host:port from the
/// calling thread over kConnections ServiceClient connections, validating
/// every answer (frame type, id, success, tag range, finite scores). Gives
/// up on what is outstanding when no answer arrives for 30 s.
DriverResult RunDriver(const std::string& host, uint16_t port,
                       const std::vector<Request>& requests,
                       const DriverOptions& options);

/// The q-quantile (0 <= q <= 1) of `v` by linear interpolation between
/// closest ranks; 0 for an empty sample. Sorts `v`.
double Quantile(std::vector<double>& v, double q);

}  // namespace servebench

#endif  // SERVEBENCH_DRIVER_H_
