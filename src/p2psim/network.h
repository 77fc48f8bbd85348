#ifndef P2PDT_P2PSIM_NETWORK_H_
#define P2PDT_P2PSIM_NETWORK_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "p2psim/simulator.h"
#include "p2psim/stats.h"

namespace p2pdt {

class Tracer;
class MetricsRegistry;

/// Index of a peer in the simulation (stable for the whole run; going
/// offline does not invalidate the id).
using NodeId = std::size_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Parameters of the simulated underlay ("Configure physical network" in
/// P2PDMT's architecture, Fig. 2).
struct PhysicalNetworkOptions {
  /// One-way latency between the two closest peers (seconds).
  double min_latency = 0.010;
  /// One-way latency between the two farthest peers (seconds). Peers are
  /// placed uniformly on a unit square; latency scales with distance, the
  /// standard Vivaldi-style coordinate underlay approximation.
  double max_latency = 0.120;
  /// Uplink bandwidth per peer (bytes/second); transmission time is
  /// bytes / bandwidth, serialized per message.
  double bandwidth_bytes_per_sec = 1.0e6;
  /// Probability that any single message is silently lost.
  double loss_rate = 0.0;
  uint64_t seed = 42;
};

/// Verdict of a fault hook for one message: drop it outright and/or delay
/// its delivery. Composed by FaultInjector from the armed fault plan.
struct FaultDecision {
  bool drop = false;
  double extra_latency = 0.0;
};

/// What a scripted adversarial peer does with its *content* (as opposed to
/// message-level faults, which only drop or delay). Classifiers consult the
/// installed AdversaryDirectory at model-production and vote-production
/// sites; kHonest means behave normally.
enum class AdversaryBehavior : uint8_t {
  kHonest = 0,
  /// Trains on negated labels and reports accuracy measured against the
  /// flipped truth — a plausible-looking but anti-correlated model.
  kLabelFlip,
  /// Publishes NaN/inf/absurd-magnitude weight vectors instead of training.
  kGarbageModel,
  /// Publishes models/accuracy vectors truncated to fewer tags than the
  /// corpus has, plus feature ids far outside the lexicon.
  kDimensionMismatch,
  /// Trains honestly but reports tag_accuracy = 1.0 and claims competence
  /// on every tag.
  kAccuracyInflate,
  /// Floods aggregation with absurd-magnitude votes: PACE peers publish a
  /// huge-bias always-positive model; CEMPaR super-peers answer queries
  /// with huge score/weight partials.
  kVoteSpam,
};

/// Stable lower_snake_case name (used as a CSV/metric label).
const char* AdversaryBehaviorToString(AdversaryBehavior behavior);

/// Read-only oracle for scripted adversarial peers. Implemented by
/// FaultInjector; installed on the network with SetAdversaries so that
/// classifiers (which already hold the network) can consult it without a
/// dependency on the fault module. Queries must be pure — in particular
/// they must not advance any shared RNG stream, so that armed-but-idle
/// plans leave baseline runs bit-identical.
class AdversaryDirectory {
 public:
  virtual ~AdversaryDirectory() = default;
  /// Behavior of `node` at simulated time `now` (kHonest outside any
  /// scripted window, and always before Arm()).
  virtual AdversaryBehavior BehaviorAt(NodeId node, SimTime now) const = 0;
  /// Deterministic per-node seed for generating corrupted payloads.
  /// Derived from the plan seed, never from the injector's live RNG —
  /// drawing corruption bytes must not perturb the message-fault stream.
  virtual uint64_t CorruptionSeed(NodeId node) const = 0;
};

/// Simulated physical (underlay) network: latency from synthetic
/// coordinates, per-message transmission delay, probabilistic loss, and
/// full message/byte accounting.
///
/// Offline semantics: a message is dropped when the sender is offline at
/// send time or the receiver is offline at *delivery* time — so a peer
/// failing mid-flight loses in-flight traffic, which is exactly the failure
/// mode churn experiments need to exercise.
///
/// Fault hook: an installed hook sees every message at send time and may
/// drop it (recorded as DropReason::kInjectedFault) or add latency. The
/// baseline random-loss draw is made whether or not a hook fires, so runs
/// with and without a fault plan consume identical RNG streams.
class PhysicalNetwork {
 public:
  using FaultHook = std::function<FaultDecision(
      NodeId from, NodeId to, MessageType type, SimTime now)>;

  PhysicalNetwork(Simulator& sim, PhysicalNetworkOptions options = {});

  /// Adds a peer at a random coordinate; starts online.
  NodeId AddNode();

  /// Adds `n` peers.
  void AddNodes(std::size_t n);

  std::size_t num_nodes() const { return online_.size(); }

  void SetOnline(NodeId node, bool online);
  bool IsOnline(NodeId node) const { return online_[node]; }
  std::size_t num_online() const { return num_online_; }

  /// One-way propagation latency between two peers (seconds).
  double Latency(NodeId from, NodeId to) const;

  /// Sends `bytes` from `from` to `to`. When the message is delivered,
  /// `on_deliver` runs at the receiver; when it is dropped (sender offline,
  /// receiver offline at arrival, or random loss) `on_drop` runs instead
  /// (at the same simulated time the delivery would have happened, or
  /// immediately for send-side failures). Either callback may be empty.
  void Send(NodeId from, NodeId to, std::size_t bytes, MessageType type,
            std::function<void()> on_deliver,
            std::function<void()> on_drop = nullptr);

  /// Installs (or clears, with nullptr) the fault hook. At most one hook is
  /// active; FaultInjector composes multiple fault rules behind one hook.
  void SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }

  NetworkStats& stats() { return stats_; }
  const NetworkStats& stats() const { return stats_; }
  Simulator& simulator() { return sim_; }
  const PhysicalNetworkOptions& options() const { return options_; }

  /// Observability attachments. Null (the default) means disabled and
  /// every instrumentation site reduces to one pointer test — the
  /// zero-cost-when-off guarantee. The network does not own either object;
  /// Environment (or a test) does. With a tracer installed, every message
  /// becomes a span parented on the tracer's current context, and the
  /// delivery/drop callback runs with that span as current — this is what
  /// stitches retries, DHT hops and request/response chains into one trace.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }
  void SetMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }
  MetricsRegistry* metrics() const { return metrics_; }

  /// Adversary attachment, same null-means-disabled contract as the
  /// observability pointers: classifiers do one pointer test and treat
  /// every peer as honest when no directory is installed. Installed by
  /// FaultInjector::Arm() when the plan scripts adversarial peers.
  void SetAdversaries(const AdversaryDirectory* adversaries) {
    adversaries_ = adversaries;
  }
  const AdversaryDirectory* adversaries() const { return adversaries_; }

 private:
  Simulator& sim_;
  PhysicalNetworkOptions options_;
  Rng rng_;
  FaultHook fault_hook_;
  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  const AdversaryDirectory* adversaries_ = nullptr;
  std::vector<std::pair<double, double>> coords_;
  std::vector<bool> online_;
  std::size_t num_online_ = 0;
  NetworkStats stats_;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PSIM_NETWORK_H_
