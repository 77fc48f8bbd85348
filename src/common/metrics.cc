#include "common/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/json_check.h"
#include "common/string_util.h"

namespace p2pdt {

namespace {

void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (cur < v &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

MetricLabels Canonicalize(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

const char* KindToString(MetricsSnapshot::Kind kind) {
  switch (kind) {
    case MetricsSnapshot::Kind::kCounter:
      return "counter";
    case MetricsSnapshot::Kind::kGauge:
      return "gauge";
    case MetricsSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::string RenderLabels(const MetricLabels& labels) {
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  return out;
}

/// Quantile estimate from bucket counts (shared by live histograms and
/// snapshots).
double QuantileFromBuckets(const std::vector<double>& bounds,
                           const std::vector<uint64_t>& buckets,
                           uint64_t count, double max_value, double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count) + 0.5);
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    uint64_t prev = cum;
    cum += buckets[i];
    if (cum < rank) continue;
    // Implicit overflow bucket: observations beyond the last bound are not
    // uniformly spread over [last_bound, max] — the only honest point
    // estimate is the observed maximum. Interpolating here used to
    // fabricate values below every observation in the bucket.
    if (i >= bounds.size()) return max_value;
    double lo = i == 0 ? 0.0 : bounds[i - 1];
    double hi = bounds[i];
    if (hi < lo) hi = lo;
    double frac = buckets[i] == 0
                      ? 1.0
                      : static_cast<double>(rank - prev) /
                            static_cast<double>(buckets[i]);
    double est = lo + frac * (hi - lo);
    return std::min(est, max_value);
  }
  return max_value;
}

}  // namespace

std::string RenderMetricKey(const std::string& name,
                            const MetricLabels& labels) {
  if (labels.empty()) return name;
  MetricLabels sorted = Canonicalize(labels);
  return name + "{" + RenderLabels(sorted) + "}";
}

const std::vector<double>& Histogram::DefaultLatencyBounds() {
  static const std::vector<double> bounds = {
      1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,
      0.25, 0.5,    1.0,  2.5,  5.0,    10.0, 25.0, 50.0,   100.0, 250.0};
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBounds();
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double v) {
  std::size_t i =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(sum_, v);
  AtomicMaxDouble(max_, v);
}

double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::Quantile(double q) const {
  return QuantileFromBuckets(bounds_, bucket_counts(), count(), max(), q);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     MetricLabels labels) {
  labels = Canonicalize(std::move(labels));
  std::string key = RenderMetricKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(key);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::move(key),
                      Family<Counter>{name, std::move(labels),
                                      std::unique_ptr<Counter>(new Counter())})
             .first;
  }
  return *it->second.metric;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 MetricLabels labels) {
  labels = Canonicalize(std::move(labels));
  std::string key = RenderMetricKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(key);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::move(key),
                      Family<Gauge>{name, std::move(labels),
                                    std::unique_ptr<Gauge>(new Gauge())})
             .first;
  }
  return *it->second.metric;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         MetricLabels labels,
                                         std::vector<double> bounds) {
  labels = Canonicalize(std::move(labels));
  std::string key = RenderMetricKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::move(key),
                      Family<Histogram>{
                          name, std::move(labels),
                          std::unique_ptr<Histogram>(
                              new Histogram(std::move(bounds)))})
             .first;
  }
  return *it->second.metric;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.entries.reserve(counters_.size() + gauges_.size() +
                       histograms_.size());
  for (const auto& [key, fam] : counters_) {
    MetricsSnapshot::Entry e;
    e.name = fam.name;
    e.labels = fam.labels;
    e.kind = MetricsSnapshot::Kind::kCounter;
    e.value = static_cast<double>(fam.metric->value());
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [key, fam] : gauges_) {
    MetricsSnapshot::Entry e;
    e.name = fam.name;
    e.labels = fam.labels;
    e.kind = MetricsSnapshot::Kind::kGauge;
    e.value = fam.metric->value();
    snap.entries.push_back(std::move(e));
  }
  for (const auto& [key, fam] : histograms_) {
    MetricsSnapshot::Entry e;
    e.name = fam.name;
    e.labels = fam.labels;
    e.kind = MetricsSnapshot::Kind::kHistogram;
    const Histogram& h = *fam.metric;
    e.count = h.count();
    e.sum = h.sum();
    e.max = h.max();
    const std::vector<uint64_t> buckets = h.bucket_counts();
    e.p50 = QuantileFromBuckets(h.bounds(), buckets, e.count, e.max, 0.50);
    e.p95 = QuantileFromBuckets(h.bounds(), buckets, e.count, e.max, 0.95);
    e.p99 = QuantileFromBuckets(h.bounds(), buckets, e.count, e.max, 0.99);
    snap.entries.push_back(std::move(e));
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const MetricsSnapshot::Entry& a,
               const MetricsSnapshot::Entry& b) { return a.key() < b.key(); });
  return snap;
}

std::size_t MetricsRegistry::num_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

const MetricsSnapshot::Entry* MetricsSnapshot::Find(
    const std::string& name, const MetricLabels& labels) const {
  std::string key = RenderMetricKey(name, labels);
  for (const Entry& e : entries) {
    if (e.key() == key) return &e;
  }
  return nullptr;
}

std::string MetricsRegistry::ToJson() const {
  const MetricsSnapshot snapshot = Snapshot();
  std::string out = "{\"metrics\":[";
  for (std::size_t i = 0; i < snapshot.entries.size(); ++i) {
    const MetricsSnapshot::Entry& e = snapshot.entries[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(e.name) + "\",\"labels\":{";
    for (std::size_t j = 0; j < e.labels.size(); ++j) {
      if (j > 0) out += ',';
      out += "\"" + JsonEscape(e.labels[j].first) + "\":\"" +
             JsonEscape(e.labels[j].second) + "\"";
    }
    out += "},\"kind\":\"";
    out += KindToString(e.kind);
    out += "\"";
    if (e.kind == MetricsSnapshot::Kind::kHistogram) {
      double mean =
          e.count == 0 ? 0.0 : e.sum / static_cast<double>(e.count);
      out += ",\"count\":" + std::to_string(e.count);
      out += ",\"sum\":" + FormatDouble(e.sum);
      out += ",\"mean\":" + FormatDouble(mean);
      out += ",\"max\":" + FormatDouble(e.max);
      out += ",\"p50\":" + FormatDouble(e.p50);
      out += ",\"p95\":" + FormatDouble(e.p95);
      out += ",\"p99\":" + FormatDouble(e.p99);
    } else {
      out += ",\"value\":" + FormatDouble(e.value);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  return WriteStringToFile(path, ToJson());
}

}  // namespace p2pdt
