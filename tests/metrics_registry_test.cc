#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json_check.h"

namespace p2pdt {
namespace {

TEST(RenderMetricKeyTest, UnlabeledIsBareName) {
  EXPECT_EQ(RenderMetricKey("messages_total", {}), "messages_total");
}

TEST(RenderMetricKeyTest, LabelsAreSortedByKey) {
  MetricLabels a = {{"phase", "train"}, {"classifier", "pace"}};
  MetricLabels b = {{"classifier", "pace"}, {"phase", "train"}};
  EXPECT_EQ(RenderMetricKey("phase_seconds", a),
            "phase_seconds{classifier=pace,phase=train}");
  EXPECT_EQ(RenderMetricKey("phase_seconds", a),
            RenderMetricKey("phase_seconds", b));
}

TEST(CounterTest, IncrementAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("sends");
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  // Same (name, labels) → same object.
  EXPECT_EQ(&reg.GetCounter("sends"), &c);
}

TEST(CounterTest, LabelOrderResolvesToSameFamilyMember) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("drops", {{"type", "ack"}, {"reason", "loss"}});
  Counter& b = reg.GetCounter("drops", {{"reason", "loss"}, {"type", "ack"}});
  EXPECT_EQ(&a, &b);
  Counter& other = reg.GetCounter("drops", {{"type", "lookup"}});
  EXPECT_NE(&a, &other);
  EXPECT_EQ(reg.num_metrics(), 2u);
}

TEST(GaugeTest, SetKeepsTheLastValue) {
  MetricsRegistry reg;
  Gauge& g = reg.GetGauge("live_homes");
  g.Set(10.0);
  g.Set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(HistogramTest, CountSumMaxMean) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat", {}, {1.0, 2.0, 4.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(3.0);
  h.Observe(10.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.75);
  std::vector<uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(HistogramTest, QuantilesInterpolateAndClampToMax) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat", {}, {1.0, 2.0, 4.0, 8.0});
  // 100 observations uniformly placed in (0, 1].
  for (int i = 1; i <= 100; ++i) h.Observe(i / 100.0);
  // All mass is in the first bucket: quantiles interpolate within (0, 1]
  // and must be monotone.
  double p50 = h.Quantile(0.50);
  double p95 = h.Quantile(0.95);
  double p99 = h.Quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, 1.0);  // clamped to observed max
}

TEST(HistogramTest, SingleBucketQuantilesStayInsideTheBucket) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat", {}, {2.0});
  h.Observe(1.0);
  h.Observe(1.0);
  h.Observe(1.5);
  // Every observation is in [0, 2): quantiles interpolate inside that
  // bucket and clamp at the observed max, never at the bound.
  EXPECT_GT(h.Quantile(0.50), 0.0);
  EXPECT_LE(h.Quantile(0.50), h.Quantile(0.95));
  EXPECT_LE(h.Quantile(0.99), 1.5);
}

TEST(HistogramTest, AllMassInOverflowBucketReportsObservedMax) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat", {}, {1.0});
  for (int i = 0; i < 4; ++i) h.Observe(5.0);
  // The implicit overflow bucket has no upper bound; interpolating within
  // it would fabricate values below every observation. The only honest
  // answer is the observed max.
  EXPECT_DOUBLE_EQ(h.Quantile(0.50), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 5.0);
}

TEST(HistogramTest, QuantileAtExactBucketBoundaryIsNotInflated) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat", {}, {1.0, 2.0, 4.0});
  // Rank lands exactly on the edge of the first bucket: the answer must
  // not exceed the data actually observed there.
  for (int i = 0; i < 10; ++i) h.Observe(0.5);
  EXPECT_LE(h.Quantile(1.0), 0.5);
  EXPECT_LE(h.Quantile(0.50), 1.0);
}

TEST(HistogramTest, P99ClampsToMaxWithOutlier) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat", {}, {1.0, 2.0});
  for (int i = 0; i < 99; ++i) h.Observe(0.5);
  h.Observe(100.0);  // single overflow outlier
  EXPECT_LE(h.Quantile(0.99), h.max());
  EXPECT_DOUBLE_EQ(h.Quantile(0.999), 100.0);
}

TEST(HistogramTest, EmptyQuantileIsZero) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat");
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, DefaultBoundsUsedWhenUnspecified) {
  MetricsRegistry reg;
  Histogram& h = reg.GetHistogram("lat");
  EXPECT_EQ(h.bounds(), Histogram::DefaultLatencyBounds());
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("z_metric").Increment(3);
  reg.GetGauge("a_metric").Set(1.5);
  reg.GetHistogram("m_metric").Observe(0.25);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "a_metric");
  EXPECT_EQ(snap.entries[1].name, "m_metric");
  EXPECT_EQ(snap.entries[2].name, "z_metric");

  const MetricsSnapshot::Entry* c = snap.Find("z_metric");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, MetricsSnapshot::Kind::kCounter);
  EXPECT_DOUBLE_EQ(c->value, 3.0);

  const MetricsSnapshot::Entry* h = snap.Find("m_metric");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, MetricsSnapshot::Kind::kHistogram);
  EXPECT_EQ(h->count, 1u);
  EXPECT_DOUBLE_EQ(h->sum, 0.25);

  EXPECT_EQ(snap.Find("missing"), nullptr);
}

TEST(MetricsRegistryTest, JsonExportIsSyntacticallyValid) {
  MetricsRegistry reg;
  reg.GetCounter("sends", {{"type", "lookup"}, {"dir", "out"}}).Increment(2);
  reg.GetGauge("coverage").Set(0.75);
  reg.GetHistogram("phase_seconds", {{"classifier", "pace"}}).Observe(0.01);
  std::string json = reg.ToJson();
  Status s = CheckJsonSyntax(json);
  EXPECT_TRUE(s.ok()) << s.ToString() << "\n" << json;
  EXPECT_TRUE(JsonHasKey(json, "metrics"));
  EXPECT_NE(json.find("\"phase_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"classifier\""), std::string::npos);
}

TEST(MetricsRegistryTest, JsonEscapesSpecialCharacters) {
  MetricsRegistry reg;
  reg.GetCounter("odd", {{"path", "a\"b\\c\n"}}).Increment(1);
  std::string json = reg.ToJson();
  Status s = CheckJsonSyntax(json);
  EXPECT_TRUE(s.ok()) << s.ToString() << "\n" << json;
}

TEST(MetricsRegistryTest, WriteJsonRoundTrips) {
  MetricsRegistry reg;
  reg.GetCounter("sends").Increment(1);
  std::string json_path = testing::TempDir() + "/metrics_test.json";
  ASSERT_TRUE(reg.WriteJson(json_path).ok());
  std::ifstream jf(json_path);
  std::stringstream buf;
  buf << jf.rdbuf();
  EXPECT_EQ(buf.str(), reg.ToJson());
  EXPECT_TRUE(CheckJsonSyntax(buf.str()).ok());
  std::remove(json_path.c_str());
}

// Lock-free recording from many threads: exact counts must survive, and
// TSan (ctest -L observability under the tsan preset) must stay quiet.
TEST(MetricsRegistryTest, ConcurrentRecordingIsExact) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("hits");
  Histogram& h = reg.GetHistogram("work", {}, {0.5, 1.0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Observe(0.25 * (1 + (t + i) % 4));  // 0.25 .. 1.0
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
}

TEST(JsonCheckTest, AcceptsValidAndRejectsInvalid) {
  EXPECT_TRUE(CheckJsonSyntax("{}").ok());
  EXPECT_TRUE(CheckJsonSyntax("[1, 2.5, -3e2, \"x\\u0041\", true, null]").ok());
  EXPECT_TRUE(CheckJsonSyntax("{\"a\":{\"b\":[{}]}}").ok());
  EXPECT_FALSE(CheckJsonSyntax("").ok());
  EXPECT_FALSE(CheckJsonSyntax("{").ok());
  EXPECT_FALSE(CheckJsonSyntax("{\"a\":}").ok());
  EXPECT_FALSE(CheckJsonSyntax("[1,]").ok());
  EXPECT_FALSE(CheckJsonSyntax("{\"a\":1} trailing").ok());
  EXPECT_FALSE(CheckJsonSyntax("\"unterminated").ok());
  EXPECT_TRUE(JsonHasKey("{\"traceEvents\":[]}", "traceEvents"));
  EXPECT_FALSE(JsonHasKey("{\"traceEvents\":[]}", "metrics"));
}

TEST(JsonCheckTest, EscapeGivesShortFormsAndHexForOtherControlBytes) {
  EXPECT_EQ(JsonEscape("plain/ü"), "plain/ü");
  EXPECT_EQ(JsonEscape("a\"b\\c\n\t\r\x01\x1f"),
            "a\\\"b\\\\c\\n\\t\\r\\u0001\\u001f");
  EXPECT_TRUE(CheckJsonSyntax("\"" + JsonEscape("\x02\"\\") + "\"").ok());
}

}  // namespace
}  // namespace p2pdt
