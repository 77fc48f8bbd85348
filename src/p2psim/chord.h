#ifndef P2PDT_P2PSIM_CHORD_H_
#define P2PDT_P2PSIM_CHORD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "p2psim/overlay.h"
#include "p2psim/simulator.h"
#include "p2psim/trace.h"

namespace p2pdt {

struct ChordOptions {
  /// Safety cap on routing hops before a lookup is declared failed.
  int max_hops = 64;
  uint64_t seed = 11;
};

/// Chord DHT overlay (Stoica et al. 2001) on top of the simulated underlay.
///
/// Peers get uniformly random keys in a 2^kKeyBits ring. Routing is
/// iterative greedy closest-preceding-finger with successor-list fallback;
/// every hop is a real simulated message with latency and loss. Finger
/// tables and successor lists are refreshed only at stabilization rounds,
/// so a churned peer leaves stale routing state behind — lookups then pay
/// extra hops (retries via the successor list) or fail, exactly the
/// degradation the churn experiments (DEMO3) quantify.
///
/// This is the substrate CEMPaR runs on: "super-peers ... are located in a
/// deterministic manner, made possible through the use of the DHT-based
/// P2P network" (paper Sec. 2) — the super-peer for a tag is the owner of
/// the tag's hashed key.
class ChordOverlay final : public Overlay {
 public:
  /// Key-space width in bits (m in the Chord paper); also the finger count.
  static constexpr std::size_t kKeyBits = 32;

  ChordOverlay(Simulator& sim, PhysicalNetwork& net, ChordOptions options = {});

  void AddNode(NodeId node) override;
  void OnTransition(NodeId node, bool online) override;
  std::string name() const override { return "chord"; }

  /// Starts periodic stabilization (charges maintenance traffic).
  void StartStabilization();

  /// Refreshes every member's routing state from the current ring. Call
  /// once after the initial batch of AddNode() calls: joining node k only
  /// builds its *own* tables, so earlier joiners still hold pre-k state —
  /// exactly what periodic stabilization repairs, but a freshly deployed
  /// network has converged long before an application runs on it. Charged
  /// as maintenance traffic like any stabilization round.
  void Bootstrap() { StabilizeRound(); }

  /// Chord key of a node.
  uint64_t KeyOf(NodeId node) const;

  /// Ground-truth owner (successor) of `key` among online members, or
  /// kInvalidNode when the ring is empty. Used by tests and by experiment
  /// harnesses to verify routing correctness.
  NodeId OwnerOf(uint64_t key) const;

  struct LookupResult {
    bool success = false;
    NodeId owner = kInvalidNode;
    int hops = 0;
  };

  /// Asynchronously routes a lookup for `key` starting at `origin`;
  /// `done` is invoked exactly once with the outcome.
  void Lookup(NodeId origin, uint64_t key,
              std::function<void(LookupResult)> done);

  /// Ring broadcast along finger tables: O(N) messages, O(log N) depth.
  void Broadcast(NodeId origin, std::size_t payload_bytes, MessageType type,
                 std::function<void(NodeId)> on_deliver,
                 std::function<void()> on_complete) override;

  /// Hashes an arbitrary 64-bit value into the key space. Peers use this on
  /// tag ids so everyone independently agrees where a tag's super-peer
  /// lives.
  uint64_t HashToKey(uint64_t value) const;

  std::size_t num_members() const { return members_.size(); }
  const ChordOptions& options() const { return options_; }

  /// Immediately refreshes one node's routing state from the current ring
  /// (also charged as maintenance traffic). Exposed for tests.
  void RefreshNode(NodeId node);

  /// Current successor list of a node (possibly stale). Empty for
  /// non-members.
  std::vector<NodeId> SuccessorsOf(NodeId node) const;

  /// Distinct valid finger targets of a node (possibly stale).
  std::vector<NodeId> FingersOf(NodeId node) const;

 private:
  struct NodeState {
    uint64_t key = 0;
    bool member = false;
    std::vector<NodeId> fingers;     // finger[i] ≈ successor(key + 2^i)
    std::vector<NodeId> successors;  // successor list, nearest first
  };

  struct LookupContext {
    uint64_t key;
    NodeId current;
    int hops = 0;
    std::function<void(LookupResult)> done;
    /// Lookup span: every routing hop nests under it (hop N+1 chains off
    /// hop N's message span via the network's context propagation).
    TraceContext trace;
  };

  // True when `key` lies in the half-open ring interval (a, b].
  bool InHalfOpen(uint64_t key, uint64_t a, uint64_t b) const;
  NodeId SuccessorOnRing(uint64_t key) const;  // ground truth, online only
  void Step(std::shared_ptr<LookupContext> ctx);
  NodeId NextHop(NodeId current, uint64_t key, NodeId avoid) const;
  void StabilizeRound();

  Simulator& sim_;
  PhysicalNetwork& net_;
  ChordOptions options_;
  Rng rng_;
  std::vector<NodeState> state_;       // indexed by NodeId
  std::map<uint64_t, NodeId> members_; // key -> node, all members (on+off)
  bool stabilizing_ = false;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PSIM_CHORD_H_
