#include "p2psim/chord.h"

#include <algorithm>
#include <cassert>

#include "common/metrics.h"

namespace p2pdt {

namespace {

/// Successor-list length for fault tolerance.
constexpr std::size_t kSuccessorListSize = 8;
/// Wire size of one routing hop request.
constexpr std::size_t kLookupMessageBytes = 64;
/// Wire size of one maintenance probe.
constexpr std::size_t kMaintenanceMessageBytes = 48;
/// Period of the stabilization round that refreshes successor lists and
/// finger tables (seconds). Between rounds, routing state goes stale —
/// this staleness is what churn experiments measure.
constexpr double kStabilizeIntervalSec = 10.0;
constexpr uint64_t kKeyMask = (uint64_t{1} << ChordOverlay::kKeyBits) - 1;

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

ChordOverlay::ChordOverlay(Simulator& sim, PhysicalNetwork& net,
                           ChordOptions options)
    : sim_(sim), net_(net), options_(options), rng_(options.seed) {}

uint64_t ChordOverlay::HashToKey(uint64_t value) const {
  return Mix64(value ^ 0x9E3779B97F4A7C15ULL) & kKeyMask;
}

uint64_t ChordOverlay::KeyOf(NodeId node) const {
  assert(node < state_.size() && state_[node].member);
  return state_[node].key;
}

void ChordOverlay::AddNode(NodeId node) {
  if (node >= state_.size()) state_.resize(node + 1);
  NodeState& s = state_[node];
  if (s.member) return;
  // Draw a unique ring key.
  uint64_t key;
  do {
    key = rng_.NextU64() & kKeyMask;
  } while (members_.count(key) > 0);
  s.key = key;
  s.member = true;
  members_.emplace(key, node);
  RefreshNode(node);
}

void ChordOverlay::OnTransition(NodeId node, bool online) {
  if (node >= state_.size() || !state_[node].member) return;
  if (online) {
    // Rejoin: rebuild this node's routing state (others stay stale until
    // their next stabilization round).
    RefreshNode(node);
  }
  // On failure nothing happens — stale fingers elsewhere are the point.
}

bool ChordOverlay::InHalfOpen(uint64_t key, uint64_t a, uint64_t b) const {
  if (a == b) return true;  // full ring (single-node case)
  if (a < b) return key > a && key <= b;
  return key > a || key <= b;  // wrapped interval
}

NodeId ChordOverlay::SuccessorOnRing(uint64_t key) const {
  if (members_.empty()) return kInvalidNode;
  // First online member clockwise from `key` (inclusive).
  auto it = members_.lower_bound(key);
  for (std::size_t scanned = 0; scanned < members_.size(); ++scanned) {
    if (it == members_.end()) it = members_.begin();
    if (net_.IsOnline(it->second)) return it->second;
    ++it;
  }
  return kInvalidNode;
}

NodeId ChordOverlay::OwnerOf(uint64_t key) const {
  return SuccessorOnRing(key & kKeyMask);
}

void ChordOverlay::RefreshNode(NodeId node) {
  NodeState& s = state_[node];
  if (!s.member || !net_.IsOnline(node)) return;

  // Successor list: the next kSuccessorListSize online members clockwise.
  s.successors.clear();
  auto it = members_.upper_bound(s.key);
  for (std::size_t scanned = 0;
       scanned < members_.size() &&
       s.successors.size() < kSuccessorListSize;
       ++scanned) {
    if (it == members_.end()) it = members_.begin();
    if (it->second != node && net_.IsOnline(it->second)) {
      s.successors.push_back(it->second);
    }
    ++it;
  }

  // Finger table: finger[i] = successor(key + 2^i).
  s.fingers.assign(kKeyBits, kInvalidNode);
  for (std::size_t i = 0; i < kKeyBits; ++i) {
    uint64_t target = (s.key + (uint64_t{1} << i)) & kKeyMask;
    NodeId f = SuccessorOnRing(target);
    if (f != node) s.fingers[i] = f;
  }

  // Charge maintenance traffic: one probe per distinct routing-table entry.
  std::vector<NodeId> distinct = s.successors;
  for (NodeId f : s.fingers) {
    if (f != kInvalidNode) distinct.push_back(f);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  for (NodeId target : distinct) {
    net_.Send(node, target, kMaintenanceMessageBytes,
              MessageType::kOverlayMaintenance, nullptr, nullptr);
  }
}

std::vector<NodeId> ChordOverlay::SuccessorsOf(NodeId node) const {
  if (node >= state_.size() || !state_[node].member) return {};
  return state_[node].successors;
}

std::vector<NodeId> ChordOverlay::FingersOf(NodeId node) const {
  if (node >= state_.size() || !state_[node].member) return {};
  std::vector<NodeId> out;
  for (NodeId f : state_[node].fingers) {
    if (f != kInvalidNode) out.push_back(f);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void ChordOverlay::StartStabilization() {
  if (stabilizing_) return;
  stabilizing_ = true;
  sim_.Schedule(kStabilizeIntervalSec, [this] {
    stabilizing_ = false;
    StabilizeRound();
    StartStabilization();
  });
}

void ChordOverlay::StabilizeRound() {
  for (const auto& [key, node] : members_) {
    if (net_.IsOnline(node)) RefreshNode(node);
  }
}

NodeId ChordOverlay::NextHop(NodeId current, uint64_t key,
                             NodeId avoid) const {
  const NodeState& s = state_[current];
  // Closest preceding routing entry: among fingers and successors whose key
  // lies strictly within (current.key, key), pick the one closest to `key`.
  NodeId best = kInvalidNode;
  uint64_t best_key = 0;
  auto consider = [&](NodeId cand) {
    if (cand == kInvalidNode || cand == current || cand == avoid) return;
    const NodeState& cs = state_[cand];
    if (!cs.member) return;
    // Strictly-inside check: cand.key in (s.key, key) on the ring.
    uint64_t rel_cand = (cs.key - s.key) & kKeyMask;
    uint64_t rel_key = (key - s.key) & kKeyMask;
    if (rel_cand == 0 || rel_cand >= rel_key) return;
    uint64_t rel_best = (best_key - s.key) & kKeyMask;
    if (best == kInvalidNode || rel_cand > rel_best) {
      best = cand;
      best_key = cs.key;
    }
  };
  for (NodeId f : s.fingers) consider(f);
  for (NodeId f : s.successors) consider(f);
  return best;
}

void ChordOverlay::Lookup(NodeId origin, uint64_t key,
                          std::function<void(LookupResult)> done) {
  key &= kKeyMask;
  auto ctx = std::make_shared<LookupContext>();
  ctx->key = key;
  ctx->current = origin;
  Tracer* tracer = net_.tracer();
  if (tracer != nullptr || net_.metrics() != nullptr) {
    if (tracer != nullptr) {
      ctx->trace = tracer->StartSpan("lookup", sim_.Now(), origin,
                                     tracer->current(), "dht");
      tracer->AddArg(ctx->trace, "key", std::to_string(key));
    }
    // Wrap the continuation once so every completion path — success, hop
    // cap, dead ring, offline origin — closes the span and charges the hop
    // histogram; individual exit sites stay oblivious.
    ctx->done = [this, trace = ctx->trace,
                 done = std::move(done)](LookupResult r) {
      if (MetricsRegistry* metrics = net_.metrics()) {
        metrics
            ->GetCounter("dht_lookups",
                         {{"success", r.success ? "true" : "false"}})
            .Increment();
        metrics
            ->GetHistogram("dht_lookup_hops", {},
                           {0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64})
            .Observe(static_cast<double>(r.hops));
      }
      Tracer* t = net_.tracer();
      if (t != nullptr) {
        t->AddArg(trace, "hops", std::to_string(r.hops));
        t->AddArg(trace, "success", r.success ? "true" : "false");
        t->EndSpan(trace, sim_.Now());
      }
      // Whatever the caller does next (upload, vote request, …) stays in
      // this trace, parented on the lookup span.
      ScopedTraceContext scope(t, trace);
      done(r);
    };
  } else {
    ctx->done = std::move(done);
  }
  if (origin >= state_.size() || !state_[origin].member ||
      !net_.IsOnline(origin)) {
    sim_.Schedule(0.0, [ctx] { ctx->done({false, kInvalidNode, 0}); });
    return;
  }
  // The first hop is issued under the lookup span; later hops chain off
  // the previous hop's message span via the network's context propagation.
  ScopedTraceContext scope(tracer, ctx->trace);
  Step(std::move(ctx));
}

void ChordOverlay::Step(std::shared_ptr<LookupContext> ctx) {
  if (ctx->hops >= options_.max_hops) {
    ctx->done({false, kInvalidNode, ctx->hops});
    return;
  }
  const NodeId cur = ctx->current;
  const NodeState& s = state_[cur];

  // Ring of one: the current node owns everything it can see.
  if (s.successors.empty()) {
    ctx->done({true, cur, ctx->hops});
    return;
  }

  // Terminal case 1: the key lies between this node's predecessor region
  // and itself — approximate with "key in (last known predecessor, me]"
  // using the ground-truth check that the key's ring successor (by this
  // node's view) is the node itself.
  // Terminal case 2: key in (me, first live successor] → the successor owns
  // it. Try the successor-list entries in order; each attempt costs one
  // message.
  uint64_t succ_key = state_[s.successors.front()].key;
  if (InHalfOpen(ctx->key, s.key, succ_key)) {
    // Try successors in order until one answers.
    auto try_successor = [this, ctx](auto&& self, std::size_t idx) -> void {
      const NodeState& cs = state_[ctx->current];
      if (idx >= cs.successors.size() || ctx->hops >= options_.max_hops) {
        ctx->done({false, kInvalidNode, ctx->hops});
        return;
      }
      NodeId target = cs.successors[idx];
      ++ctx->hops;
      net_.Send(
          ctx->current, target, kLookupMessageBytes,
          MessageType::kLookup,
          [ctx, target] { ctx->done({true, target, ctx->hops}); },
          [self, ctx, idx] { self(self, idx + 1); });
    };
    try_successor(try_successor, 0);
    return;
  }

  // Forwarding case: route greedily to the closest preceding entry, with
  // fallback to the next-best candidate when the hop target is dead.
  auto try_forward = [this, ctx](auto&& self, NodeId avoid) -> void {
    // Every retry costs a hop; without this cap two stale candidates could
    // ping-pong the retry loop forever (Step's check only guards entry).
    if (ctx->hops >= options_.max_hops) {
      ctx->done({false, kInvalidNode, ctx->hops});
      return;
    }
    NodeId next = NextHop(ctx->current, ctx->key, avoid);
    if (next == kInvalidNode) {
      // No routing entry precedes the key: fall back to the first
      // successor (classic Chord behaviour).
      const NodeState& cs = state_[ctx->current];
      next = cs.successors.empty() ? kInvalidNode : cs.successors.front();
      if (next == kInvalidNode || next == avoid) {
        ctx->done({false, kInvalidNode, ctx->hops});
        return;
      }
    }
    ++ctx->hops;
    net_.Send(
        ctx->current, next, kLookupMessageBytes,
        MessageType::kLookup,
        [this, ctx, next] {
          ctx->current = next;
          Step(ctx);
        },
        [self, next] { self(self, next); });
  };
  try_forward(try_forward, kInvalidNode);
}

void ChordOverlay::Broadcast(NodeId origin, std::size_t payload_bytes,
                             MessageType type,
                             std::function<void(NodeId)> on_deliver,
                             std::function<void()> on_complete) {
  // DHT broadcast along finger tables (El-Ansary et al. 2003): each node
  // covers the ring interval (its key, limit); it delegates disjoint
  // sub-intervals to its fingers inside that range. O(N) messages, O(log N)
  // depth, no duplicates on a stable ring. Drops prune whole subtrees —
  // exactly how churn hurts dissemination in practice.
  struct BcastState {
    std::size_t pending = 0;
    std::vector<bool> delivered;
    std::function<void(NodeId)> on_deliver;
    std::function<void()> on_complete;
    std::function<void(NodeId, uint64_t)> spread;
  };
  auto st = std::make_shared<BcastState>();
  st->delivered.resize(state_.size(), false);
  st->on_deliver = std::move(on_deliver);
  st->on_complete = std::move(on_complete);

  auto finish_one = [this, st] {
    if (--st->pending > 0) return;
    if (st->on_complete) sim_.Schedule(0.0, std::move(st->on_complete));
    st->spread = nullptr;  // break the shared_ptr cycle
  };

  st->spread = [this, st, payload_bytes, type, finish_one](NodeId at,
                                                           uint64_t limit) {
    // Collect distinct fingers inside (key(at), limit), ascending by ring
    // distance from `at`.
    const NodeState& s = state_[at];
    uint64_t rel_limit = (limit - s.key) & kKeyMask;
    if (rel_limit == 0) rel_limit = kKeyMask;  // root covers the full ring
    std::vector<NodeId> targets;
    for (NodeId f : s.fingers) {
      if (f == kInvalidNode || f == at) continue;
      uint64_t rel_f = (state_[f].key - s.key) & kKeyMask;
      if (rel_f == 0 || rel_f >= rel_limit) continue;
      targets.push_back(f);
    }
    std::sort(targets.begin(), targets.end(), [&](NodeId a, NodeId b) {
      return ((state_[a].key - s.key) & kKeyMask) <
             ((state_[b].key - s.key) & kKeyMask);
    });
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());

    for (std::size_t i = 0; i < targets.size(); ++i) {
      NodeId t = targets[i];
      uint64_t sub_limit =
          (i + 1 < targets.size()) ? state_[targets[i + 1]].key : limit;
      ++st->pending;
      net_.Send(
          at, t, payload_bytes, type,
          [st, t, sub_limit, finish_one] {
            if (t < st->delivered.size() && !st->delivered[t]) {
              st->delivered[t] = true;
              if (st->on_deliver) st->on_deliver(t);
            }
            if (st->spread) st->spread(t, sub_limit);
            finish_one();
          },
          finish_one);
    }
  };

  ++st->pending;  // root task
  if (origin < state_.size() && state_[origin].member &&
      net_.IsOnline(origin)) {
    st->delivered[origin] = true;
    st->spread(origin, state_[origin].key);
  }
  finish_one();
}

}  // namespace p2pdt
