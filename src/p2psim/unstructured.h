#ifndef P2PDT_P2PSIM_UNSTRUCTURED_H_
#define P2PDT_P2PSIM_UNSTRUCTURED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "p2psim/overlay.h"
#include "p2psim/simulator.h"

namespace p2pdt {

/// How a broadcast spreads over the random graph.
enum class DisseminationMode {
  /// Forward to every neighbor (Gnutella query flooding): maximal
  /// redundancy, fastest coverage, highest cost.
  kFlood,
  /// Push gossip: forward to kGossipFanout (3) random neighbors per round.
  /// Epidemic dissemination — near-full coverage at a fraction of
  /// flooding's message count, at the price of probabilistic misses.
  kGossip,
};

struct UnstructuredOptions {
  /// TTL for broadcasts (hops). Each joining peer links to 6 random
  /// members (Gnutella-style random graph), so mean degree d is about 12
  /// and a TTL of ceil(log_{d-1} N) + slack reaches nearly everyone.
  int flood_ttl = 8;
  DisseminationMode mode = DisseminationMode::kFlood;
  uint64_t seed = 13;
};

/// Unstructured overlay: a random graph with TTL-scoped flooding, the
/// paper's "Generate unstructured P2P network" alternative (Fig. 2).
///
/// There are no keys and no routing guarantees — dissemination costs
/// O(N · degree) duplicate-suppressed messages instead of Chord's O(N) —
/// which is exactly the structured-vs-unstructured trade-off the topology
/// experiment (DEMO4) measures.
class UnstructuredOverlay final : public Overlay {
 public:
  UnstructuredOverlay(Simulator& sim, PhysicalNetwork& net,
                      UnstructuredOptions options = {});

  void AddNode(NodeId node) override;
  void OnTransition(NodeId node, bool online) override;
  std::string name() const override {
    return options_.mode == DisseminationMode::kGossip
               ? "unstructured-gossip"
               : "unstructured";
  }

  /// TTL-scoped flooding (or push gossip, per options) with duplicate
  /// suppression.
  void Broadcast(NodeId origin, std::size_t payload_bytes, MessageType type,
                 std::function<void(NodeId)> on_deliver,
                 std::function<void()> on_complete) override;

  const std::vector<NodeId>& Neighbors(NodeId node) const {
    return adjacency_[node];
  }

  /// Mean degree over current members.
  double MeanDegree() const;

 private:
  void Connect(NodeId a, NodeId b);

  Simulator& sim_;
  PhysicalNetwork& net_;
  UnstructuredOptions options_;
  Rng rng_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<bool> member_;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PSIM_UNSTRUCTURED_H_
