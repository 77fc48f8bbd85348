#include "p2pdmt/loadgen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"

namespace p2pdt {
namespace {

enum class StubMode { kEcho, kShedFirstCall, kShedAlways };

/// Deterministic in-sim classifier double: answers every request with fixed
/// tags after a fixed delay, optionally shedding (typed overload reject)
/// per mode. Records enough to assert what the generator asked for.
class StubClassifier : public P2PClassifier {
 public:
  StubClassifier(Simulator& sim, double delay, StubMode mode = StubMode::kEcho)
      : sim_(sim), delay_(delay), mode_(mode) {}

  Status SetupShards(std::vector<DatasetShard>, TagId) override {
    return Status::OK();
  }
  void Train(std::function<void(Status)> done) override { done(Status::OK()); }
  std::string name() const override { return "stub"; }

  void Predict(NodeId requester, const SparseVector& x,
               std::function<void(P2PPrediction)> done) override {
    const std::size_t call = ++calls_;
    requested_.push_back(&x);
    const int now_inflight = ++inflight_[requester];
    max_inflight_ = std::max(max_inflight_, now_inflight);
    sim_.Schedule(delay_, [this, requester, call, done = std::move(done)] {
      --inflight_[requester];
      P2PPrediction out;
      const bool shed =
          mode_ == StubMode::kShedAlways ||
          (mode_ == StubMode::kShedFirstCall && call == 1);
      if (shed) {
        out.success = false;
        out.overloaded = true;
      } else {
        out.tags = {1};
        out.scores = {0.9};
      }
      done(std::move(out));
    });
  }

  std::size_t calls() const { return calls_; }
  const std::vector<const SparseVector*>& requested() const {
    return requested_;
  }
  int max_inflight() const { return max_inflight_; }

 private:
  Simulator& sim_;
  double delay_;
  StubMode mode_;
  std::size_t calls_ = 0;
  std::vector<const SparseVector*> requested_;
  std::map<NodeId, int> inflight_;
  int max_inflight_ = 0;
};

struct Catalog {
  std::vector<SparseVector> storage;
  std::vector<const SparseVector*> docs;

  explicit Catalog(std::size_t n) {
    storage.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      SparseVector v;
      v.PushBack(static_cast<uint32_t>(i), 1.0);
      storage.push_back(std::move(v));
    }
    for (const SparseVector& v : storage) docs.push_back(&v);
  }
};

LoadGenResult RunLoad(Simulator& sim, StubClassifier& stub,
                      const Catalog& catalog, LoadGenOptions options,
                      std::size_t num_requesters = 4) {
  MetricsRegistry metrics;
  std::vector<NodeId> requesters;
  for (std::size_t i = 0; i < num_requesters; ++i) requesters.push_back(i);
  SessionLoadGenerator gen(sim, stub, options, catalog.docs, requesters,
                           metrics);
  LoadGenResult result;
  bool done = false;
  gen.Run([&](const LoadGenResult& r) {
    result = r;
    done = true;
  });
  sim.RunUntil(1e6);
  EXPECT_TRUE(done);
  return result;
}

LoadGenOptions SmallOptions() {
  LoadGenOptions opt;
  opt.enabled = true;
  opt.sessions = 6;
  opt.min_docs = 2;
  opt.max_docs = 5;
  opt.arrival_rate = 12.0;
  opt.seed = 17;
  return opt;
}

TEST(LoadGenTest, SameSeedSameSchedule) {
  Catalog catalog(32);
  LoadGenResult a, b;
  {
    Simulator sim;
    StubClassifier stub(sim, 0.01);
    a = RunLoad(sim, stub, catalog, SmallOptions());
  }
  {
    Simulator sim;
    StubClassifier stub(sim, 0.01);
    b = RunLoad(sim, stub, catalog, SmallOptions());
  }
  EXPECT_GT(a.offered, 0u);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);

  LoadGenOptions other = SmallOptions();
  other.seed = 18;
  Simulator sim;
  StubClassifier stub(sim, 0.01);
  LoadGenResult c = RunLoad(sim, stub, catalog, other);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST(LoadGenTest, CompletesEveryOfferedRequest) {
  Catalog catalog(32);
  Simulator sim;
  StubClassifier stub(sim, 0.01);
  LoadGenOptions opt = SmallOptions();
  LoadGenResult r = RunLoad(sim, stub, catalog, opt);
  // Session lengths were drawn from [min_docs, max_docs].
  EXPECT_GE(r.offered, opt.sessions * opt.min_docs);
  EXPECT_LE(r.offered, opt.sessions * opt.max_docs);
  EXPECT_EQ(r.completed, r.offered);
  EXPECT_EQ(r.ok, r.offered);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(stub.calls(), r.offered);
  EXPECT_GT(r.makespan, 0.0);
}

TEST(LoadGenTest, SloSeparatesFastFromSlowAnswers) {
  Catalog catalog(16);
  LoadGenOptions opt = SmallOptions();
  opt.slo_latency = 1.0;
  {
    Simulator sim;
    StubClassifier stub(sim, 0.01);  // fast: everything inside SLO
    LoadGenResult r = RunLoad(sim, stub, catalog, opt);
    EXPECT_EQ(r.within_slo, r.completed);
    EXPECT_GT(r.goodput_within_slo, 0.0);
    EXPECT_LE(r.p99_latency, 1.0);
  }
  {
    Simulator sim;
    StubClassifier stub(sim, 2.5);  // slow: everything blows the SLO
    LoadGenResult r = RunLoad(sim, stub, catalog, opt);
    EXPECT_EQ(r.within_slo, 0u);
    EXPECT_DOUBLE_EQ(r.goodput_within_slo, 0.0);
    EXPECT_GE(r.max_latency, 2.5);
    EXPECT_GE(r.p50_latency, 1.0);
  }
}

TEST(LoadGenTest, FlashCrowdTargetsHotDocuments) {
  Catalog catalog(64);
  LoadGenOptions opt = SmallOptions();
  opt.sessions = 8;
  opt.min_docs = 5;
  opt.max_docs = 5;
  FlashCrowdBurst burst;
  burst.start = 0.0;
  burst.duration = 1e9;  // covers the whole run
  burst.rate_multiplier = 1.0;
  burst.hot_fraction = 1.0;
  burst.hot_docs = 3;
  opt.bursts = {burst};

  Simulator sim;
  StubClassifier stub(sim, 0.01);
  LoadGenResult r = RunLoad(sim, stub, catalog, opt);
  EXPECT_EQ(r.completed, r.offered);
  ASSERT_EQ(stub.requested().size(), r.offered);
  for (const SparseVector* doc : stub.requested()) {
    const auto it =
        std::find(catalog.docs.begin(), catalog.docs.end(), doc);
    ASSERT_NE(it, catalog.docs.end());
    EXPECT_LT(static_cast<std::size_t>(it - catalog.docs.begin()), 3u);
  }
}

// A ZipfSampler built once draws exactly what a fresh per-draw sampler
// (the old Rng::Zipf) drew from the same stream.
TEST(LoadGenTest, SharedSamplerDrawsEqualPerDrawSampler) {
  for (uint64_t n : {1ull, 2ull, 5ull, 64ull, 1000ull, 13318ull}) {
    for (double s : {0.0, 0.8, 1.1, 2.0}) {
      for (uint64_t seed : {1ull, 7ull, 0xF1A5ull, 271828ull}) {
        const ZipfSampler shared(n, s);
        Rng a(seed), b(seed);
        for (int k = 0; k < 32; ++k) {
          ASSERT_EQ(shared.Sample(a), ZipfSampler(n, s).Sample(b))
              << "n=" << n << " s=" << s << " seed=" << seed << " k=" << k;
        }
      }
    }
  }
}

// The document pick as it was before samplers were shared: one fresh
// O(catalog) table per draw. kDocStream pins the pick stream's DeriveSeed
// domain, so changing it fails here too.
std::size_t PerDrawPickDoc(const LoadGenOptions& options,
                           std::size_t catalog_size, std::size_t session,
                           std::size_t idx, double t) {
  constexpr uint64_t kDocStream = 0xD0Cull;
  Rng rng(DeriveSeed(options.seed ^ kDocStream, session, idx));
  if (const FlashCrowdBurst* burst = LoadGenActiveBurst(options, t)) {
    if (rng.Bernoulli(burst->hot_fraction)) {
      const uint64_t n = std::min<uint64_t>(
          std::max<std::size_t>(burst->hot_docs, 1), catalog_size);
      return static_cast<std::size_t>(ZipfSampler(n, options.zipf_s)
                                          .Sample(rng));
    }
  }
  return static_cast<std::size_t>(
      ZipfSampler(catalog_size, options.zipf_s).Sample(rng));
}

TEST(LoadGenTest, PickDocMatchesPerDrawSampler) {
  FlashCrowdBurst small_hot;
  small_hot.start = 1.0;
  small_hot.duration = 1.0;
  small_hot.hot_fraction = 0.5;
  small_hot.hot_docs = 3;
  FlashCrowdBurst wide_hot;
  wide_hot.start = 1.5;
  wide_hot.duration = 2.5;
  wide_hot.hot_fraction = 0.7;
  wide_hot.hot_docs = 100;
  FlashCrowdBurst zero_hot = wide_hot;
  zero_hot.start = 4.5;
  zero_hot.hot_docs = 0;
  for (std::size_t catalog : {1u, 3u, 64u, 13318u}) {
    for (double s : {0.0, 1.1}) {
      for (uint64_t seed : {1ull, 0xF1A5ull}) {
        LoadGenOptions opt;
        opt.zipf_s = s;
        opt.seed = seed;
        opt.bursts = {small_hot, wide_hot, zero_hot};
        const LoadGenDocSamplers samplers(opt, catalog);
        for (double t : {0.0, 1.2, 1.7, 3.0, 4.6, 9.0}) {
          for (std::size_t session = 0; session < 3; ++session) {
            for (std::size_t idx = 0; idx < 6; ++idx) {
              ASSERT_EQ(LoadGenPickDoc(opt, samplers, session, idx, t),
                        PerDrawPickDoc(opt, catalog, session, idx, t))
                  << "catalog=" << catalog << " s=" << s << " seed=" << seed
                  << " t=" << t << " session=" << session << " idx=" << idx;
            }
          }
        }
      }
    }
  }
}

TEST(LoadGenTest, RetriesOnceAfterOverloadReject) {
  Catalog catalog(4);
  Simulator sim;
  StubClassifier stub(sim, 0.01, StubMode::kShedFirstCall);
  LoadGenOptions opt;
  opt.enabled = true;
  opt.sessions = 1;
  opt.min_docs = 1;
  opt.max_docs = 1;
  opt.arrival_rate = 1.0;
  opt.max_retries = 1;
  opt.retry_backoff = 0.5;
  LoadGenResult r = RunLoad(sim, stub, catalog, opt);
  EXPECT_EQ(r.offered, 1u);
  EXPECT_EQ(r.shed, 1u);
  EXPECT_EQ(r.retries, 1u);
  EXPECT_EQ(r.completed, 1u);
  EXPECT_EQ(r.ok, 1u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(stub.calls(), 2u);
  // The retry waited for the backoff, so total latency includes it.
  EXPECT_GE(r.max_latency, opt.retry_backoff);
}

TEST(LoadGenTest, GivesUpAfterRetryBudget) {
  Catalog catalog(4);
  Simulator sim;
  StubClassifier stub(sim, 0.01, StubMode::kShedAlways);
  LoadGenOptions opt;
  opt.enabled = true;
  opt.sessions = 1;
  opt.min_docs = 1;
  opt.max_docs = 1;
  opt.arrival_rate = 1.0;
  opt.max_retries = 2;
  LoadGenResult r = RunLoad(sim, stub, catalog, opt);
  EXPECT_EQ(r.offered, 1u);
  EXPECT_EQ(r.retries, 2u);
  EXPECT_EQ(r.shed, 3u);  // initial + both retries observed a shed
  EXPECT_EQ(r.completed, 1u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_EQ(r.ok, 0u);
  EXPECT_EQ(r.within_slo, 0u);
}

TEST(LoadGenTest, ClosedLoopNeverOverlapsWithinSession) {
  Catalog catalog(16);
  LoadGenOptions opt;
  opt.enabled = true;
  opt.closed_loop = true;
  opt.sessions = 3;
  opt.min_docs = 4;
  opt.max_docs = 6;
  Simulator sim;
  StubClassifier stub(sim, 0.2);
  // 3 sessions on 3 distinct requesters: closed-loop sessions wait for the
  // answer, so no requester ever has two requests in flight.
  LoadGenResult r = RunLoad(sim, stub, catalog, opt, /*num_requesters=*/3);
  EXPECT_EQ(r.completed, r.offered);
  EXPECT_EQ(stub.max_inflight(), 1);
}

TEST(LoadGenTest, OpenLoopOverloadsASlowServer) {
  Catalog catalog(16);
  LoadGenOptions opt;
  opt.enabled = true;
  opt.sessions = 4;
  opt.min_docs = 8;
  opt.max_docs = 8;
  opt.arrival_rate = 100.0;  // far faster than the 0.2s service time
  Simulator sim;
  StubClassifier stub(sim, 0.2);
  LoadGenResult r = RunLoad(sim, stub, catalog, opt, /*num_requesters=*/4);
  EXPECT_EQ(r.completed, r.offered);
  // Open loop keeps issuing regardless of completions — requests pile up.
  EXPECT_GT(stub.max_inflight(), 1);
}

}  // namespace
}  // namespace p2pdt
