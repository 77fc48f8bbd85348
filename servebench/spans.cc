#include "spans.h"

#include <cstdio>
#include <map>
#include <memory>

#include "driver.h"

namespace servebench {

int64_t SpanLog::Add(const char* name, double start, double end,
                     int64_t parent, int64_t request) {
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<SpanLog::Summary> SpanLog::Summarize() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, Summary> by_name;
  std::map<std::string, std::vector<double>> self_ms;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double self = (s.end - s.start) - child_time[i];
    Summary& sum = by_name[s.name];
    sum.name = s.name;
    ++sum.count;
    sum.total_s += s.end - s.start;
    sum.self_s += self;
    self_ms[s.name].push_back(self * 1e3);
  }
  std::vector<Summary> out;
  for (auto& [name, sum] : by_name) {
    sum.self_p50_ms = Quantile(self_ms[name], 0.5);
    out.push_back(sum);
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%lld,\"request\":%lld}\n",
                 i, s.name, (s.start - t0) * 1e6, (s.end - t0) * 1e6,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fflush(f.get()) == 0 && !std::ferror(f.get());
}

}  // namespace servebench
