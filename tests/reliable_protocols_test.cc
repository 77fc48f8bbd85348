// End-to-end robustness acceptance: CEMPaR and PACE driven over a lossy /
// churned underlay with the reliable transport on and off. The baseline
// (fire-and-forget) measurably degrades; with retries the protocols
// converge — PACE's received_ matrix fills, CEMPaR predictions keep
// succeeding — and serial == parallel determinism survives the transport.

#include <set>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "p2pdmt/environment.h"
#include "p2pml/cempar.h"
#include "p2pml/pace.h"

namespace p2pdt {
namespace {

std::vector<MultiLabelDataset> MakePeerData(std::size_t num_peers,
                                            std::size_t per_peer,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<MultiLabelDataset> peers(num_peers, MultiLabelDataset(4));
  for (std::size_t p = 0; p < num_peers; ++p) {
    for (std::size_t i = 0; i < per_peer; ++i) {
      TagId tag = static_cast<TagId>((p + i) % 4);
      MultiLabelExample ex;
      ex.x = SparseVector::FromPairs(
          {{tag * 3 + static_cast<uint32_t>(rng.NextU64(3)), 1.0},
           {12 + static_cast<uint32_t>(rng.NextU64(4)),
            0.3 * rng.NextDouble()}});
      ex.tags = {tag};
      peers[p].Add(std::move(ex));
    }
  }
  return peers;
}

SparseVector TagVector(TagId tag) {
  return SparseVector::FromPairs({{tag * 3u, 1.0}, {tag * 3u + 1, 1.0}});
}

struct PaceFixture {
  std::unique_ptr<Environment> env;
  std::unique_ptr<Pace> pace;

  PaceFixture(std::size_t peers, double loss_rate, PaceOptions options = {}) {
    EnvironmentOptions eo;
    eo.num_peers = peers;
    eo.physical.loss_rate = loss_rate;
    env = std::move(Environment::Create(eo)).value();
    pace = std::make_unique<Pace>(env->sim(), env->net(), env->overlay(),
                                  options);
  }

  Status Train(std::vector<MultiLabelDataset> data) {
    P2PDT_RETURN_IF_ERROR(pace->Setup(std::move(data), 4));
    bool done = false;
    Status status = Status::OK();
    pace->Train([&](Status s) {
      status = s;
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);
    return status;
  }
};

struct CemparFixture {
  std::unique_ptr<Environment> env;
  std::unique_ptr<Cempar> cempar;

  CemparFixture(std::size_t peers, double loss_rate,
                CemparOptions options = {}) {
    EnvironmentOptions eo;
    eo.num_peers = peers;
    eo.physical.loss_rate = loss_rate;
    env = std::move(Environment::Create(eo)).value();
    if (options.svm.kernel.type == KernelType::kRbf) {
      options.svm.kernel = Kernel::Linear();
    }
    cempar = std::make_unique<Cempar>(env->sim(), env->net(), *env->chord(),
                                      options);
  }

  Status Train(std::vector<MultiLabelDataset> data) {
    P2PDT_RETURN_IF_ERROR(cempar->Setup(std::move(data), 4));
    bool done = false;
    Status status = Status::OK();
    cempar->Train([&](Status s) {
      status = s;
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);
    return status;
  }

  P2PPrediction PredictSync(NodeId requester, const SparseVector& x) {
    P2PPrediction out;
    bool done = false;
    cempar->Predict(requester, x, [&](P2PPrediction p) {
      out = std::move(p);
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);
    return out;
  }
};

// ---------------------------------------------------------------------------
// PACE: reliable dissemination closes the coverage gap loss opens.

TEST(ReliableProtocolsTest, PaceBaselineLosesCoverageUnderLoss) {
  PaceFixture f(10, /*loss_rate=*/0.2);
  ASSERT_TRUE(f.Train(MakePeerData(10, 8, 21)).ok());
  EXPECT_LT(f.pace->ModelCoverage(), 1.0);
  EXPECT_EQ(f.pace->repair_rounds_run(), 0u);
}

TEST(ReliableProtocolsTest, PaceRepairConvergesUnderLoss) {
  PaceOptions opt;
  opt.reliable_dissemination = true;
  PaceFixture f(10, /*loss_rate=*/0.2, opt);
  ASSERT_TRUE(f.Train(MakePeerData(10, 8, 21)).ok());
  // Acceptance: 100% received_ convergence at loss 0.2.
  EXPECT_DOUBLE_EQ(f.pace->ModelCoverage(), 1.0);
  EXPECT_GE(f.pace->repair_rounds_run(), 1u);
  EXPECT_GT(f.env->net().stats().retransmits(), 0u);
  EXPECT_GT(f.env->net().stats().acks_received(), 0u);
}

// ---------------------------------------------------------------------------
// CEMPaR: retries keep predictions succeeding where fire-and-forget fails.

TEST(ReliableProtocolsTest, CemparRetriesKeepPredictionsSucceeding) {
  // A single prediction fails only when EVERY super-peer group loses its
  // round trip, so moderate loss rarely kills it outright — 45% loss makes
  // the fire-and-forget baseline fail visibly while the transport still
  // delivers.
  const std::size_t kPredictions = 20;
  auto run = [&](bool reliable) {
    CemparOptions opt;
    opt.reliable_transport = reliable;
    CemparFixture f(12, /*loss_rate=*/0.45, opt);
    EXPECT_TRUE(f.Train(MakePeerData(12, 6, 22)).ok());
    std::size_t ok = 0, degraded = 0;
    for (std::size_t i = 0; i < kPredictions; ++i) {
      P2PPrediction p = f.PredictSync(i % 12, TagVector(i % 4));
      if (p.success) ++ok;
      if (p.degraded) ++degraded;
    }
    if (reliable) {
      EXPECT_GT(f.env->net().stats().retransmits(), 0u);
    } else {
      EXPECT_EQ(degraded, 0u);
    }
    return ok;
  };

  std::size_t baseline_ok = run(false);
  std::size_t reliable_ok = run(true);
  // Acceptance: success rate >= 0.99 with retries; the baseline measurably
  // degrades at 20% loss.
  EXPECT_GE(static_cast<double>(reliable_ok),
            0.99 * static_cast<double>(kPredictions));
  EXPECT_LT(baseline_ok, reliable_ok);
}

TEST(ReliableProtocolsTest, CemparPredictionWaitsOutOwnerDowntime) {
  // Churn x retry at the protocol level: every super-peer goes offline,
  // the prediction's requests back off, the owners return before the retry
  // budget is spent, and the answer arrives exactly once — no give-up, no
  // degraded fallback.
  CemparOptions opt;
  opt.reliable_transport = true;
  CemparFixture f(12, /*loss_rate=*/0.0, opt);
  ASSERT_TRUE(f.Train(MakePeerData(12, 6, 23)).ok());

  std::set<NodeId> owners;
  for (NodeId o : f.cempar->HomeOwners()) {
    if (o != kInvalidNode) owners.insert(o);
  }
  ASSERT_FALSE(owners.empty());
  NodeId requester = 0;
  while (owners.count(requester)) ++requester;

  for (NodeId o : owners) f.env->net().SetOnline(o, false);
  f.env->sim().Schedule(1.0, [&] {
    for (NodeId o : owners) f.env->net().SetOnline(o, true);
  });

  uint64_t retx_before = f.env->net().stats().retransmits();
  P2PPrediction p = f.PredictSync(requester, TagVector(1));
  ASSERT_TRUE(p.success);
  EXPECT_FALSE(p.degraded);
  EXPECT_EQ(p.tags, (std::vector<TagId>{1}));
  EXPECT_GT(f.env->net().stats().retransmits(), retx_before);
  EXPECT_EQ(f.env->net().stats().give_ups(), 0u);
}

TEST(ReliableProtocolsTest, CemparDegradesToLocalModelsWhenIsolated) {
  CemparOptions opt;
  opt.reliable_transport = true;
  opt.transport.max_retries = 1;  // fail fast, the peers are gone for good
  constexpr std::size_t kPeers = 10;
  CemparFixture f(kPeers, /*loss_rate=*/0.0, opt);
  ASSERT_TRUE(f.Train(MakePeerData(kPeers, 8, 24)).ok());

  // Isolate a requester that neither owns a home nor holds a home's
  // standby replica (the owner's first live successor): then no regional
  // model stays reachable and none can be promoted onto the requester.
  std::set<NodeId> serving;
  for (NodeId owner : f.cempar->HomeOwners()) {
    if (owner == kInvalidNode) continue;
    serving.insert(owner);
    for (NodeId succ : f.env->chord()->SuccessorsOf(owner)) {
      if (succ != owner && f.env->net().IsOnline(succ)) {
        serving.insert(succ);
        break;
      }
    }
  }
  NodeId requester = 0;
  while (serving.count(requester) > 0) ++requester;
  ASSERT_LT(requester, kPeers);
  for (NodeId n = 0; n < kPeers; ++n) {
    if (n != requester) f.env->net().SetOnline(n, false);
  }
  P2PPrediction p = f.PredictSync(requester, TagVector(2));
  ASSERT_TRUE(p.success);
  EXPECT_TRUE(p.degraded);
  // Scores come from the peer's own local models — reduced quality, so no
  // exact-tag assertion, but they must exist.
  EXPECT_EQ(p.scores.size(), 4u);

  // The fire-and-forget baseline fails outright in the same situation.
  CemparFixture g(kPeers, /*loss_rate=*/0.0);
  ASSERT_TRUE(g.Train(MakePeerData(kPeers, 8, 24)).ok());
  for (NodeId n = 0; n < kPeers; ++n) {
    if (n != requester) g.env->net().SetOnline(n, false);
  }
  P2PPrediction q = g.PredictSync(requester, TagVector(2));
  EXPECT_FALSE(q.success);
  EXPECT_FALSE(q.degraded);
}

TEST(ReliableProtocolsTest, CemparReplicatesAndPromotesStandbys) {
  CemparOptions opt;
  opt.reliable_transport = true;
  opt.transport.max_retries = 1;
  opt.transport.suspicion_threshold = 1;
  CemparFixture f(16, /*loss_rate=*/0.0, opt);
  ASSERT_TRUE(f.Train(MakePeerData(16, 6, 25)).ok());
  // Every regional model got a standby replica after the cascade.
  EXPECT_EQ(f.cempar->NumReplicatedHomes(), 4u);

  // Kill one super-peer without telling anyone (no stabilization, no
  // churn event): only the transport's give-ups can notice.
  NodeId victim = kInvalidNode;
  for (NodeId o : f.cempar->HomeOwners()) {
    if (o != kInvalidNode) {
      victim = o;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  f.env->net().SetOnline(victim, false);
  EXPECT_LT(f.cempar->NumLiveHomes(), 4u);

  NodeId requester = 0;
  while (requester == victim) ++requester;
  // First prediction: the victim's group gives up, suspicion fires, the
  // standby is promoted. Other homes still answer, so it succeeds.
  P2PPrediction first = f.PredictSync(requester, TagVector(0));
  EXPECT_TRUE(first.success);
  EXPECT_TRUE(f.cempar->runtime().transport()->IsSuspected(victim));
  // Promotion restored every home to a live owner.
  EXPECT_EQ(f.cempar->NumLiveHomes(), 4u);

  // Second prediction reaches the promoted standby through the ring.
  P2PPrediction second = f.PredictSync(requester, TagVector(3));
  ASSERT_TRUE(second.success);
  EXPECT_FALSE(second.degraded);
  EXPECT_EQ(second.tags, (std::vector<TagId>{3}));
}

// ---------------------------------------------------------------------------
// Determinism: the transport's timers and retries stay bit-reproducible at
// any thread count.

TEST(ReliableProtocolsTest, SerialEqualsParallelWithTransportEnabled) {
  auto run = [](std::size_t threads) {
    ThreadPool::SetGlobalConcurrency(threads);
    PaceOptions opt;
    opt.reliable_dissemination = true;
    PaceFixture f(10, /*loss_rate=*/0.2, opt);
    EXPECT_TRUE(f.Train(MakePeerData(10, 8, 26)).ok());

    struct Snapshot {
      uint64_t messages, bytes, retransmits, acks, give_ups;
      double coverage;
      std::vector<double> scores;
      bool operator==(const Snapshot& o) const {
        return messages == o.messages && bytes == o.bytes &&
               retransmits == o.retransmits && acks == o.acks &&
               give_ups == o.give_ups && coverage == o.coverage &&
               scores == o.scores;
      }
    };
    Snapshot s;
    const NetworkStats& stats = f.env->net().stats();
    s.messages = stats.messages_sent();
    s.bytes = stats.bytes_sent();
    s.retransmits = stats.retransmits();
    s.acks = stats.acks_received();
    s.give_ups = stats.give_ups();
    s.coverage = f.pace->ModelCoverage();
    for (TagId t = 0; t < 4; ++t) {
      P2PPrediction p;
      bool done = false;
      f.pace->Predict(3, TagVector(t), [&](P2PPrediction r) {
        p = std::move(r);
        done = true;
      });
      f.env->RunUntilFlag(done, 3600);
      EXPECT_TRUE(done);
      for (double v : p.scores) s.scores.push_back(v);
    }
    return s;
  };

  auto serial = run(1);
  auto parallel = run(4);
  ThreadPool::SetGlobalConcurrency(0);
  EXPECT_TRUE(serial == parallel);
  EXPECT_GT(serial.retransmits, 0u);
}

}  // namespace
}  // namespace p2pdt
