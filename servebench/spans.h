#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// In-memory span log of one traced run, written out once at exit. Span
/// names are string literals; times are MonotonicSeconds().
class SpanLog {
 public:
  static constexpr int64_t kNone = -1;

  struct Span {
    const char* name;
    double start;
    double end;
    int64_t parent;   // index into spans(), or kNone
    int64_t request;  // request id, or kNone outside the request path
  };

  /// Appends a span and returns its index (the id children name as parent).
  int64_t Add(const char* name, double start, double end,
              int64_t parent = kNone, int64_t request = kNone);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: count, total and self time (duration minus the part
  /// its children cover; children of one parent never overlap here).
  struct Summary {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double self_p50_ms = 0.0;
  };
  std::vector<Summary> Summarize() const;

  /// Writes one JSON object per line: id, name, start_us, end_us (relative
  /// to the first span's start), parent, request.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
