#include "p2psim/chord.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

struct Ring {
  Simulator sim;
  std::unique_ptr<PhysicalNetwork> net;
  std::unique_ptr<ChordOverlay> chord;

  explicit Ring(std::size_t n, ChordOptions options = {}) {
    net = std::make_unique<PhysicalNetwork>(sim);
    net->AddNodes(n);
    chord = std::make_unique<ChordOverlay>(sim, *net, options);
    for (NodeId i = 0; i < n; ++i) chord->AddNode(i);
    chord->Bootstrap();
  }

  ChordOverlay::LookupResult LookupSync(NodeId origin, uint64_t key) {
    ChordOverlay::LookupResult out;
    bool done = false;
    chord->Lookup(origin, key, [&](ChordOverlay::LookupResult r) {
      out = r;
      done = true;
    });
    sim.RunUntil(sim.Now() + 600.0);
    EXPECT_TRUE(done);
    return out;
  }
};

TEST(ChordTest, KeysAreUniquePerNode) {
  Ring ring(64);
  std::set<uint64_t> keys;
  for (NodeId n = 0; n < 64; ++n) keys.insert(ring.chord->KeyOf(n));
  EXPECT_EQ(keys.size(), 64u);
}

TEST(ChordTest, OwnerOfIsRingSuccessor) {
  Ring ring(16);
  // The owner of a node's own key is the node itself.
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_EQ(ring.chord->OwnerOf(ring.chord->KeyOf(n)), n);
  }
}

TEST(ChordTest, LookupsResolveGroundTruthOwner) {
  Ring ring(32);
  Rng rng(4);
  for (int i = 0; i < 60; ++i) {
    uint64_t key = rng.NextU64();
    NodeId origin = rng.NextU64(32);
    NodeId truth = ring.chord->OwnerOf(key);
    ChordOverlay::LookupResult r = ring.LookupSync(origin, key);
    ASSERT_TRUE(r.success) << "key " << key << " from " << origin;
    EXPECT_EQ(r.owner, truth);
  }
}

TEST(ChordTest, LookupsAgreeAcrossOrigins) {
  Ring ring(48);
  uint64_t key = ring.chord->HashToKey(12345);
  NodeId first = ring.LookupSync(0, key).owner;
  for (NodeId origin = 1; origin < 48; origin += 7) {
    EXPECT_EQ(ring.LookupSync(origin, key).owner, first);
  }
}

TEST(ChordTest, HopsLogarithmicInNetworkSize) {
  for (std::size_t n : {16u, 64u, 256u}) {
    Ring ring(n);
    Rng rng(7);
    double total_hops = 0;
    const int lookups = 40;
    for (int i = 0; i < lookups; ++i) {
      ChordOverlay::LookupResult r =
          ring.LookupSync(rng.NextU64(n), rng.NextU64());
      ASSERT_TRUE(r.success);
      total_hops += r.hops;
    }
    double mean_hops = total_hops / lookups;
    // Mean hop count ≈ ½ log2 N; allow generous headroom but require
    // sub-linear growth.
    EXPECT_LE(mean_hops, 2.0 * std::log2(static_cast<double>(n)))
        << "n=" << n;
    EXPECT_GE(mean_hops, 0.5) << "n=" << n;
  }
}

TEST(ChordTest, LookupFromOfflineOriginFails) {
  Ring ring(8);
  ring.net->SetOnline(3, false);
  ChordOverlay::LookupResult r = ring.LookupSync(3, 42);
  EXPECT_FALSE(r.success);
}

TEST(ChordTest, SingleNodeOwnsEverything) {
  Ring ring(1);
  EXPECT_EQ(ring.chord->OwnerOf(0), 0u);
  ChordOverlay::LookupResult r = ring.LookupSync(0, 999);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.owner, 0u);
  EXPECT_EQ(r.hops, 0);
}

TEST(ChordTest, SuccessorListSurvivesFailures) {
  Ring ring(32);
  uint64_t key = ring.chord->HashToKey(777);
  NodeId owner = ring.chord->OwnerOf(key);
  // Kill the owner: the ground truth moves to the next ring successor, and
  // (after the origin notices the drop) lookups follow the successor list.
  ring.net->SetOnline(owner, false);
  NodeId new_owner = ring.chord->OwnerOf(key);
  EXPECT_NE(new_owner, owner);
  ChordOverlay::LookupResult r = ring.LookupSync(5 == owner ? 6 : 5, key);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.owner, new_owner);
}

TEST(ChordTest, MassFailureStillRoutesViaStabilization) {
  Ring ring(64);
  Rng rng(9);
  // Kill a third of the network, then stabilize once (repairs tables).
  for (NodeId n = 0; n < 64; n += 3) ring.net->SetOnline(n, false);
  ring.chord->Bootstrap();
  int successes = 0;
  for (int i = 0; i < 30; ++i) {
    NodeId origin;
    do {
      origin = rng.NextU64(64);
    } while (!ring.net->IsOnline(origin));
    uint64_t key = rng.NextU64();
    ChordOverlay::LookupResult r = ring.LookupSync(origin, key);
    if (r.success && r.owner == ring.chord->OwnerOf(key)) ++successes;
  }
  EXPECT_GE(successes, 28);
}

TEST(ChordTest, LookupChargesMessages) {
  Ring ring(32);
  uint64_t before = ring.net->stats().messages_sent(MessageType::kLookup);
  ring.LookupSync(0, ring.chord->HashToKey(1));
  uint64_t after = ring.net->stats().messages_sent(MessageType::kLookup);
  EXPECT_GT(after, before);
}

TEST(ChordTest, BootstrapChargesMaintenance) {
  Ring ring(16);
  EXPECT_GT(ring.net->stats().messages_sent(MessageType::kOverlayMaintenance),
            0u);
}

TEST(ChordTest, BroadcastReachesAllOnlinePeers) {
  Ring ring(40);
  std::set<NodeId> reached;
  bool complete = false;
  ring.chord->Broadcast(7, 128, MessageType::kModelBroadcast,
                        [&](NodeId n) { reached.insert(n); },
                        [&] { complete = true; });
  ring.sim.RunUntil(ring.sim.Now() + 600.0);
  EXPECT_TRUE(complete);
  EXPECT_EQ(reached.size(), 39u);  // everyone but the origin
  EXPECT_EQ(reached.count(7), 0u);
}

TEST(ChordTest, BroadcastMessageCountIsLinear) {
  Ring ring(64);
  uint64_t before = ring.net->stats().messages_sent(
      MessageType::kModelBroadcast);
  bool complete = false;
  ring.chord->Broadcast(0, 64, MessageType::kModelBroadcast, nullptr,
                        [&] { complete = true; });
  ring.sim.RunUntil(ring.sim.Now() + 600.0);
  ASSERT_TRUE(complete);
  uint64_t sent =
      ring.net->stats().messages_sent(MessageType::kModelBroadcast) - before;
  // Tree dissemination: exactly N-1 messages on a stable ring.
  EXPECT_EQ(sent, 63u);
}

TEST(ChordTest, BroadcastFromOfflineOriginCompletesEmpty) {
  Ring ring(8);
  ring.net->SetOnline(2, false);
  bool complete = false;
  std::set<NodeId> reached;
  ring.chord->Broadcast(2, 8, MessageType::kGossip,
                        [&](NodeId n) { reached.insert(n); },
                        [&] { complete = true; });
  ring.sim.RunUntil(ring.sim.Now() + 10.0);
  EXPECT_TRUE(complete);
  EXPECT_TRUE(reached.empty());
}

TEST(ChordTest, StabilizationRunsPeriodically) {
  Ring ring(16);
  uint64_t base =
      ring.net->stats().messages_sent(MessageType::kOverlayMaintenance);
  ring.chord->StartStabilization();
  ring.sim.RunUntil(35.0);  // ≥ 3 rounds at the default 10s interval
  uint64_t after =
      ring.net->stats().messages_sent(MessageType::kOverlayMaintenance);
  EXPECT_GT(after, base + 3 * 16);
}

TEST(ChordTest, HashToKeyDeterministicAndMasked) {
  Ring ring(4);
  EXPECT_EQ(ring.chord->HashToKey(5), ring.chord->HashToKey(5));
  EXPECT_LT(ring.chord->HashToKey(5), uint64_t{1} << ChordOverlay::kKeyBits);
}

TEST(ChordTest, LookupsStayConsistentUnderSustainedChurn) {
  // Stress: random failures/rejoins interleaved with stabilization; every
  // lookup must terminate (success or clean failure), and successful
  // lookups from different origins at the same instant must agree.
  Ring ring(48);
  Rng rng(123);
  std::size_t lookups_done = 0, agreements = 0, comparisons = 0;

  for (int round = 0; round < 30; ++round) {
    // Random churn step: toggle a couple of peers.
    for (int t = 0; t < 2; ++t) {
      NodeId victim = rng.NextU64(48);
      bool online = ring.net->IsOnline(victim);
      ring.net->SetOnline(victim, !online);
      ring.chord->OnTransition(victim, !online);
    }
    if (round % 5 == 0) ring.chord->Bootstrap();  // stabilization round

    uint64_t key = rng.NextU64();
    NodeId origin_a, origin_b;
    do {
      origin_a = rng.NextU64(48);
    } while (!ring.net->IsOnline(origin_a));
    do {
      origin_b = rng.NextU64(48);
    } while (!ring.net->IsOnline(origin_b));

    ChordOverlay::LookupResult ra, rb;
    bool done_a = false, done_b = false;
    ring.chord->Lookup(origin_a, key, [&](ChordOverlay::LookupResult r) {
      ra = r;
      done_a = true;
    });
    ring.chord->Lookup(origin_b, key, [&](ChordOverlay::LookupResult r) {
      rb = r;
      done_b = true;
    });
    ring.sim.RunUntil(ring.sim.Now() + 300.0);
    ASSERT_TRUE(done_a && done_b) << "lookup did not terminate";
    lookups_done += 2;
    if (ra.success && rb.success) {
      ++comparisons;
      if (ra.owner == rb.owner) ++agreements;
    }
  }
  EXPECT_EQ(lookups_done, 60u);
  // Concurrent lookups resolved from live (possibly stale) state; the
  // overwhelming majority must agree.
  ASSERT_GT(comparisons, 10u);
  EXPECT_GE(static_cast<double>(agreements) /
                static_cast<double>(comparisons),
            0.9);
}

TEST(ChordTest, RejoinRefreshesOwnState) {
  Ring ring(24);
  NodeId victim = 11;
  ring.net->SetOnline(victim, false);
  ring.chord->OnTransition(victim, false);
  ring.net->SetOnline(victim, true);
  ring.chord->OnTransition(victim, true);
  // The rejoined node can route again.
  uint64_t key = ring.chord->HashToKey(31337);
  ChordOverlay::LookupResult r = ring.LookupSync(victim, key);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.owner, ring.chord->OwnerOf(key));
}

}  // namespace
}  // namespace p2pdt
