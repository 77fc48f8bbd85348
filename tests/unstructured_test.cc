#include "p2psim/unstructured.h"

#include <set>

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

struct Graph {
  Simulator sim;
  std::unique_ptr<PhysicalNetwork> net;
  std::unique_ptr<UnstructuredOverlay> overlay;

  explicit Graph(std::size_t n, UnstructuredOptions options = {}) {
    net = std::make_unique<PhysicalNetwork>(sim);
    net->AddNodes(n);
    overlay = std::make_unique<UnstructuredOverlay>(sim, *net, options);
    for (NodeId i = 0; i < n; ++i) overlay->AddNode(i);
  }
};

TEST(UnstructuredTest, MeanDegreeNearTarget) {
  Graph g(100);
  // Each join adds 6 undirected edges (except the bootstrap few), so mean
  // degree ≈ 2 * 6 * (n - small) / n.
  EXPECT_GE(g.overlay->MeanDegree(), 6.0);
  EXPECT_LE(g.overlay->MeanDegree(), 13.0);
}

TEST(UnstructuredTest, AdjacencyIsSymmetric) {
  Graph g(50);
  for (NodeId n = 0; n < 50; ++n) {
    for (NodeId nb : g.overlay->Neighbors(n)) {
      const auto& back = g.overlay->Neighbors(nb);
      EXPECT_NE(std::find(back.begin(), back.end(), n), back.end());
    }
  }
}

TEST(UnstructuredTest, NoSelfLoopsOrDuplicateEdges) {
  Graph g(60);
  for (NodeId n = 0; n < 60; ++n) {
    std::set<NodeId> seen;
    for (NodeId nb : g.overlay->Neighbors(n)) {
      EXPECT_NE(nb, n);
      EXPECT_TRUE(seen.insert(nb).second) << "duplicate edge at " << n;
    }
  }
}

TEST(UnstructuredTest, FloodReachesEveryoneOnStableGraph) {
  Graph g(80);
  std::set<NodeId> reached;
  bool complete = false;
  g.overlay->Broadcast(0, 64, MessageType::kGossip,
                       [&](NodeId n) { reached.insert(n); },
                       [&] { complete = true; });
  g.sim.RunUntil(600.0);
  EXPECT_TRUE(complete);
  EXPECT_EQ(reached.size(), 79u);
}

TEST(UnstructuredTest, FloodCostExceedsTreeBroadcast) {
  // Flooding sends O(N * degree) messages — the structural disadvantage
  // vs. Chord's O(N) tree (DEMO4's point).
  Graph g(80);
  bool complete = false;
  g.overlay->Broadcast(0, 64, MessageType::kGossip, nullptr,
                       [&] { complete = true; });
  g.sim.RunUntil(600.0);
  ASSERT_TRUE(complete);
  EXPECT_GT(g.net->stats().messages_sent(MessageType::kGossip), 79u * 2);
}

TEST(UnstructuredTest, TtlBoundsPropagation) {
  UnstructuredOptions opt;
  opt.flood_ttl = 1;  // direct neighbors only
  Graph g(100, opt);
  std::set<NodeId> reached;
  bool complete = false;
  g.overlay->Broadcast(0, 16, MessageType::kGossip,
                       [&](NodeId n) { reached.insert(n); },
                       [&] { complete = true; });
  g.sim.RunUntil(600.0);
  EXPECT_TRUE(complete);
  // TTL 1 delivers to exactly the origin's neighborhood.
  EXPECT_EQ(reached.size(), g.overlay->Neighbors(0).size());
  for (NodeId n : reached) {
    const auto& nb = g.overlay->Neighbors(0);
    EXPECT_NE(std::find(nb.begin(), nb.end(), n), nb.end());
  }
}

TEST(UnstructuredTest, OfflinePeersBreakPropagationPaths) {
  Graph g(60);
  // Take down half the network.
  for (NodeId n = 1; n < 60; n += 2) g.net->SetOnline(n, false);
  std::set<NodeId> reached;
  bool complete = false;
  g.overlay->Broadcast(0, 16, MessageType::kGossip,
                       [&](NodeId n) { reached.insert(n); },
                       [&] { complete = true; });
  g.sim.RunUntil(600.0);
  EXPECT_TRUE(complete);
  for (NodeId n : reached) EXPECT_TRUE(g.net->IsOnline(n));
  EXPECT_LT(reached.size(), 30u);
}

TEST(UnstructuredTest, BroadcastFromOfflineOriginCompletesEmpty) {
  Graph g(10);
  g.net->SetOnline(4, false);
  bool complete = false;
  std::set<NodeId> reached;
  g.overlay->Broadcast(4, 8, MessageType::kGossip,
                       [&](NodeId n) { reached.insert(n); },
                       [&] { complete = true; });
  g.sim.RunUntil(10.0);
  EXPECT_TRUE(complete);
  EXPECT_TRUE(reached.empty());
}

TEST(UnstructuredTest, GossipCoversMostPeersCheaper) {
  UnstructuredOptions flood_opt;
  flood_opt.flood_ttl = 10;
  UnstructuredOptions gossip_opt = flood_opt;
  gossip_opt.mode = DisseminationMode::kGossip;

  auto run = [](const UnstructuredOptions& opt) {
    Graph g(120, opt);
    std::set<NodeId> reached;
    bool complete = false;
    g.overlay->Broadcast(0, 64, MessageType::kGossip,
                         [&](NodeId n) { reached.insert(n); },
                         [&] { complete = true; });
    g.sim.RunUntil(600.0);
    EXPECT_TRUE(complete);
    return std::make_pair(reached.size(),
                          g.net->stats().messages_sent(MessageType::kGossip));
  };
  auto [flood_reached, flood_msgs] = run(flood_opt);
  auto [gossip_reached, gossip_msgs] = run(gossip_opt);

  EXPECT_EQ(flood_reached, 119u);
  // Epidemic dissemination: ≥90% coverage at a fraction of the messages.
  EXPECT_GE(gossip_reached, 107u);
  EXPECT_LT(gossip_msgs, flood_msgs / 2);
}

TEST(UnstructuredTest, GossipNameDistinct) {
  UnstructuredOptions opt;
  opt.mode = DisseminationMode::kGossip;
  Graph g(4, opt);
  EXPECT_EQ(g.overlay->name(), "unstructured-gossip");
}

TEST(UnstructuredTest, DeterministicTopologyInSeed) {
  UnstructuredOptions opt;
  opt.seed = 321;
  Graph a(40, opt), b(40, opt);
  for (NodeId n = 0; n < 40; ++n) {
    EXPECT_EQ(a.overlay->Neighbors(n), b.overlay->Neighbors(n));
  }
}

}  // namespace
}  // namespace p2pdt
