#include "p2psim/unstructured.h"

#include <algorithm>

namespace p2pdt {

namespace {

/// Wire header of each flooded copy (carries the broadcast id peers use
/// for duplicate suppression).
constexpr std::size_t kHeaderBytes = 24;
/// Neighbors contacted per hop in kGossip mode.
constexpr std::size_t kGossipFanout = 3;
/// Random existing members each joining peer links to.
constexpr std::size_t kJoinLinks = 6;

}  // namespace

UnstructuredOverlay::UnstructuredOverlay(Simulator& sim, PhysicalNetwork& net,
                                         UnstructuredOptions options)
    : sim_(sim), net_(net), options_(options), rng_(options.seed) {}

void UnstructuredOverlay::Connect(NodeId a, NodeId b) {
  if (a == b) return;
  auto& na = adjacency_[a];
  if (std::find(na.begin(), na.end(), b) != na.end()) return;
  na.push_back(b);
  adjacency_[b].push_back(a);
}

void UnstructuredOverlay::AddNode(NodeId node) {
  if (node >= adjacency_.size()) {
    adjacency_.resize(node + 1);
    member_.resize(node + 1, false);
  }
  if (member_[node]) return;
  member_[node] = true;

  // Attach to kJoinLinks random existing members (bootstrap-server model);
  // early nodes get linked by later arrivals, giving a connected
  // Gnutella-like random graph.
  std::vector<NodeId> candidates;
  for (NodeId n = 0; n < member_.size(); ++n) {
    if (n != node && member_[n]) candidates.push_back(n);
  }
  rng_.Shuffle(candidates);
  std::size_t links = std::min(kJoinLinks, candidates.size());
  for (std::size_t i = 0; i < links; ++i) Connect(node, candidates[i]);
}

void UnstructuredOverlay::OnTransition(NodeId node, bool online) {
  if (!online) return;
  // A rejoining peer re-bootstraps if it lost all neighbors to departures;
  // the graph itself is kept (peers remember their neighbor lists).
  if (node < adjacency_.size() && member_[node] &&
      adjacency_[node].empty()) {
    member_[node] = false;
    AddNode(node);
  }
}

double UnstructuredOverlay::MeanDegree() const {
  std::size_t total = 0, count = 0;
  for (NodeId n = 0; n < adjacency_.size(); ++n) {
    if (member_[n]) {
      total += adjacency_[n].size();
      ++count;
    }
  }
  return count == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(count);
}

void UnstructuredOverlay::Broadcast(NodeId origin, std::size_t payload_bytes,
                                    MessageType type,
                                    std::function<void(NodeId)> on_deliver,
                                    std::function<void()> on_complete) {
  struct FloodState {
    std::size_t pending = 0;
    std::vector<bool> seen;
    std::function<void(NodeId)> on_deliver;
    std::function<void()> on_complete;
    std::function<void(NodeId, int)> relay;
  };
  auto st = std::make_shared<FloodState>();
  st->seen.resize(adjacency_.size(), false);
  st->on_deliver = std::move(on_deliver);
  st->on_complete = std::move(on_complete);

  auto finish_one = [this, st] {
    if (--st->pending > 0) return;
    if (st->on_complete) sim_.Schedule(0.0, std::move(st->on_complete));
    st->relay = nullptr;  // break the cycle
  };

  std::size_t bytes = payload_bytes + kHeaderBytes;
  st->relay = [this, st, bytes, type, finish_one](NodeId at, int ttl) {
    if (ttl <= 0) return;
    // Flooding forwards to every neighbor; gossip samples a fanout-sized
    // random subset per hop.
    std::vector<NodeId> targets = adjacency_[at];
    if (options_.mode == DisseminationMode::kGossip &&
        targets.size() > kGossipFanout) {
      rng_.Shuffle(targets);
      targets.resize(kGossipFanout);
    }
    for (NodeId nb : targets) {
      // Senders do not know receiver liveness; they do suppress neighbors
      // they already heard the message from (via `seen` bookkeeping at the
      // receiving end only — the sender-side check models the standard
      // "don't echo back" rule imperfectly but cheaply).
      ++st->pending;
      net_.Send(
          at, nb, bytes, type,
          [st, nb, ttl, finish_one] {
            if (!st->seen[nb]) {
              st->seen[nb] = true;
              if (st->on_deliver) st->on_deliver(nb);
              if (st->relay) st->relay(nb, ttl - 1);
            }
            finish_one();
          },
          finish_one);
    }
  };

  ++st->pending;  // root task
  if (origin < adjacency_.size() && member_[origin] &&
      net_.IsOnline(origin)) {
    st->seen[origin] = true;
    st->relay(origin, options_.flood_ttl);
  }
  finish_one();
}

}  // namespace p2pdt
