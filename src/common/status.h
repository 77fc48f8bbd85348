#ifndef P2PDT_COMMON_STATUS_H_
#define P2PDT_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace p2pdt {

/// Error category for a failed operation. Mirrors the common database-library
/// convention (RocksDB/Arrow) of a small closed set of codes plus a free-form
/// message, so that callers can branch on the code and humans can read the
/// message.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kUnavailable,
  kInternal,
  kIOError,
  /// Stored data exists but failed an integrity check (bad checksum, torn
  /// write, unsupported version). Distinct from kIOError (the read itself
  /// failed) and kNotFound (nothing stored): callers holding a kDataLoss
  /// can safely discard the artifact and rebuild from source.
  kDataLoss,
  /// A received model failed sanitation (non-finite values, dimension or
  /// norm bounds, truncated per-tag vectors) and was rejected at an
  /// ingestion point instead of being merged. Distinct from kDataLoss: the
  /// payload parsed fine, its *content* is hostile or nonsensical.
  kRejectedModel,
};

/// Returns a stable human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// Lightweight result-of-operation type used across library boundaries.
///
/// The library does not throw exceptions across its public API; fallible
/// operations return a `Status` (or a `Result<T>`, below). `Status` is cheap
/// to copy in the OK case (empty message) and carries a message otherwise.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status RejectedModel(std::string msg) {
    return Status(StatusCode::kRejectedModel, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<CODE>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// A value-or-error union, the library's substitute for exceptions on
/// value-returning fallible paths.
///
/// Usage:
///   Result<Lexicon> r = Lexicon::Load(path);
///   if (!r.ok()) return r.status();
///   Lexicon lex = std::move(r).value();
template <typename T>
class Result {
 public:
  /// Implicit from value — enables `return my_value;`.
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status — enables `return Status::NotFound(...)`.
  /// Must not be an OK status.
  Result(Status status) : data_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(data_); }

  /// Status of the operation; OK when a value is held.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(data_);
  }

  /// Accesses the held value. Precondition: ok().
  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` when this holds an error.
  T value_or(T fallback) const {
    if (ok()) return value();
    return fallback;
  }

 private:
  std::variant<T, Status> data_;
};

/// Propagates a non-OK Status out of the current function.
#define P2PDT_RETURN_IF_ERROR(expr)                  \
  do {                                               \
    ::p2pdt::Status _p2pdt_status = (expr);          \
    if (!_p2pdt_status.ok()) return _p2pdt_status;   \
  } while (0)

}  // namespace p2pdt

#endif  // P2PDT_COMMON_STATUS_H_
