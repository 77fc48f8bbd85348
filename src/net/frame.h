#ifndef P2PDT_NET_FRAME_H_
#define P2PDT_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sparse_vector.h"
#include "common/status.h"

namespace p2pdt {

/// Length-prefixed framing for the real-socket service mode (p2pdtd).
///
/// Every frame is
///
///   magic "P2DF" (u32 LE) | type (u8) | payload length (u32 LE) | payload
///
/// with a hard payload bound checked at header-parse time — an oversized or
/// zero length field is rejected *before any allocation is sized from it*,
/// extending the PR 5 kDataLoss wire discipline to the socket path. The
/// payload bytes reuse the existing `wire::` little-endian primitives, so a
/// model or document serialized for the simulator is byte-identical on the
/// real wire.
///
/// TCP delivers a byte stream, not frames: the decoder accepts input split
/// at arbitrary points (byte-by-byte included) and reassembles bit-identical
/// frames. After any reject the stream is unsynchronized and the decoder is
/// poisoned — the connection must be closed, there is no resync scan.

constexpr uint32_t kFrameMagic = 0x46443250;  // "P2DF" little-endian
constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 4;
/// Hard payload bound. A tagging request carries one sparse document vector
/// (a few KiB); 1 MiB leaves generous headroom while keeping a hostile
/// length field from sizing a giant allocation.
constexpr std::size_t kMaxFramePayload = 1u << 20;

enum class FrameType : uint8_t {
  kPredictRequest = 1,
  kPredictResponse = 2,
  kOverload = 3,  // typed admission-control reject, carries retry-after
  kError = 4,     // typed protocol error (malformed / oversized / ...)
  kPing = 5,
  kPong = 6,
};

const char* FrameTypeToString(FrameType t);

/// Error codes carried by a kError frame.
enum class WireError : uint8_t {
  kMalformed = 1,       // payload failed to parse
  kOversized = 2,       // declared length beyond kMaxFramePayload
  kBadMagic = 3,        // stream out of sync / not speaking the protocol
  kBadType = 4,         // unknown frame type byte
  kZeroPayload = 5,     // zero-length frame (every type carries a payload)
  kUnexpectedType = 6,  // well-formed frame the server does not accept
  kTooManyConnections = 7,
  kDraining = 8,  // server is shutting down gracefully
  kInternal = 9,
};

const char* WireErrorToString(WireError e);

struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// Encodes a complete frame (header + payload). The payload must respect
/// the bounds the decoder enforces; violating them is a programming error
/// surfaced at the peer as a reject.
std::string EncodeFrame(FrameType type, const std::string& payload);

/// Incremental decoder over a bounded buffer. Feed() appends raw bytes;
/// Poll() extracts the next complete frame or reports a typed reject.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload);

  enum class Next : uint8_t {
    kFrame = 0,
    kNeedMore,
    kBadMagic,
    kBadType,
    kZeroPayload,
    kOversized,
  };

  /// Appends bytes. Returns false when the internal buffer would exceed
  /// header + max_payload. Readers feed at most room() bytes and drain
  /// complete frames before feeding more, so a healthy stream never hits
  /// the bound.
  bool Feed(const char* data, std::size_t n);

  /// Extracts the next frame into `out`. On any reject the decoder is
  /// poisoned: every later Poll repeats the same verdict and Feed is
  /// rejected. Rejects are detected from the 9 header bytes alone, before
  /// the payload is buffered or allocated.
  Next Poll(Frame& out);

  /// Maps a reject verdict to the matching typed wire error.
  static WireError RejectToError(Next reject);

  std::size_t buffered() const { return buffer_.size() - consumed_; }
  /// Bytes Feed still accepts before the buffer bound.
  std::size_t room() const {
    return kFrameHeaderBytes + max_payload_ - buffered();
  }
  bool poisoned() const { return poisoned_ != Next::kFrame; }

 private:
  std::size_t max_payload_;
  std::string buffer_;
  std::size_t consumed_ = 0;  // prefix already handed out as frames
  Next poisoned_ = Next::kFrame;
};

// ---------------------------------------------------------------------------
// Typed messages carried in frame payloads. Every length field is bounded
// against the remaining payload before any allocation (kDataLoss on
// violation), mirroring the model-serialization hardening.

struct PredictRequest {
  uint64_t id = 0;         // echoed verbatim in the response
  uint64_t requester = 0;  // logical peer the request is issued as
  SparseVector doc;
};

struct PredictResponse {
  uint64_t id = 0;
  bool success = false;
  bool degraded = false;
  bool cached = false;
  std::vector<uint32_t> tags;
  std::vector<double> scores;
};

struct OverloadReject {
  uint64_t id = 0;
  uint8_t reason = 0;  // AdmitOutcome value from the serving queue
  double retry_after = 0.0;
};

struct ErrorReject {
  uint64_t id = 0;  // 0 when the offending request could not be parsed
  WireError code = WireError::kInternal;
  std::string message;
};

std::string EncodePredictRequest(const PredictRequest& req);
Result<PredictRequest> DecodePredictRequest(const std::string& payload);

std::string EncodePredictResponse(const PredictResponse& resp);
Result<PredictResponse> DecodePredictResponse(const std::string& payload);

std::string EncodeOverloadReject(const OverloadReject& reject);
Result<OverloadReject> DecodeOverloadReject(const std::string& payload);

std::string EncodeErrorReject(const ErrorReject& reject);
Result<ErrorReject> DecodeErrorReject(const std::string& payload);

/// Ping/pong payload is a single u64 token echoed back.
std::string EncodePingPayload(uint64_t token);
Result<uint64_t> DecodePingPayload(const std::string& payload);

}  // namespace p2pdt

#endif  // P2PDT_NET_FRAME_H_
