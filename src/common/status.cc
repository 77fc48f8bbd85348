#include "common/status.h"

namespace p2pdt {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kIOError:
      return "IO_ERROR";
    case StatusCode::kDataLoss:
      return "DATA_LOSS";
    case StatusCode::kRejectedModel:
      return "REJECTED_MODEL";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  out += ": ";
  out += message_;
  return out;
}

}  // namespace p2pdt
