#ifndef P2PDT_P2PSIM_TRANSPORT_H_
#define P2PDT_P2PSIM_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "p2psim/network.h"
#include "p2psim/trace.h"

namespace p2pdt {

/// Tuning knobs for the reliable transport. Defaults are sized for the
/// simulated underlay (tens of milliseconds RTT): an initial timeout of a
/// few RTTs, doubling per retry with ±jitter, capped attempts.
struct ReliableTransportOptions {
  /// Retransmissions after the first attempt; attempts = max_retries + 1.
  std::size_t max_retries = 6;
  /// Timeout growth per retry (exponential backoff).
  double backoff_factor = 2.0;
  /// Jitter: each timeout is scaled by a factor drawn uniformly from
  /// [1 - jitter, 1 + jitter] with a DeriveSeed(seed, msg_id, attempt)
  /// stream, so backoff schedules are bit-reproducible at any thread count.
  double jitter = 0.1;
  /// Consecutive give-ups targeting one peer before it is suspected dead.
  std::size_t suspicion_threshold = 2;
  uint64_t seed = 0x5EED7A6;
};

/// Receiver-side admission verdict for one arriving message. `accept=false`
/// sheds the request: the payload never runs and the sender gets a typed
/// overload NACK carrying `retry_after` instead of an ACK. On accept,
/// `delay` defers the payload (queueing + service time) while the ACK still
/// returns immediately — the wire-level accept is not the serving latency.
struct AdmissionVerdict {
  bool accept = true;
  double delay = 0.0;
  double retry_after = 0.0;
};

/// Reliable, at-most-once-effect delivery on top of the lossy
/// PhysicalNetwork: positive ACKs, per-message timeouts derived from the
/// estimated RTT, exponential backoff with deterministic jitter, bounded
/// retries, and dead-peer suspicion.
///
/// Semantics:
///  - `on_deliver` runs at the receiver exactly once per logical message,
///    no matter how many retransmissions arrive (duplicates are ACKed but
///    deduplicated by message id) — protocols get idempotent delivery for
///    free.
///  - Exactly one of `on_acked` / `on_give_up` eventually runs at the
///    sender, so barrier-style completion accounting never hangs.
///  - A peer that accumulates `suspicion_threshold` consecutive give-ups
///    is *suspected* dead; any later ACK from it clears the suspicion.
///    The suspicion listener fires on the transition into suspicion — the
///    hook CEMPaR uses to promote a standby super-peer.
///
/// Determinism: all calls run on the simulator driver thread; message ids
/// increase in scheduling order and jitter streams are keyed by
/// (seed, msg_id, attempt), never by wall clock or thread identity.
class ReliableTransport {
 public:
  /// Floor / ceiling on any single timeout (seconds).
  static constexpr double kRtoMin = 0.05;
  static constexpr double kRtoMax = 30.0;
  /// Overload rejects tolerated per message before giving up. Deliberately
  /// much smaller than max_retries: hammering an overloaded peer with the
  /// full retry budget is the retry storm that amplifies a flash crowd.
  static constexpr std::size_t kMaxOverloadRetries = 2;

  using MsgId = uint64_t;
  using SuspicionListener = std::function<void(NodeId suspect)>;
  using AdmissionHook =
      std::function<AdmissionVerdict(NodeId to, MessageType type)>;

  ReliableTransport(Simulator& sim, PhysicalNetwork& net,
                    ReliableTransportOptions options = {});

  /// Sends `bytes` from `from` to `to` with retries. Any callback may be
  /// empty. Returns the logical message id.
  MsgId SendReliable(NodeId from, NodeId to, std::size_t bytes,
                     MessageType type, std::function<void()> on_deliver,
                     std::function<void()> on_acked = nullptr,
                     std::function<void()> on_give_up = nullptr);

  /// Estimated round-trip time for a (data, ACK) exchange between two
  /// peers, used to derive the initial retransmission timeout.
  double EstimateRtt(NodeId from, NodeId to, std::size_t bytes) const;

  /// Timeout armed for attempt `attempt` (0-based) of message `id`.
  double RetransmissionTimeout(MsgId id, std::size_t attempt,
                               double base_rto) const;

  bool IsSuspected(NodeId node) const;
  std::size_t SuspicionLevel(NodeId node) const;
  void SetSuspicionListener(SuspicionListener listener) {
    suspicion_listener_ = std::move(listener);
  }

  /// Installs receiver-side admission control. Consulted once per *fresh*
  /// data arrival (duplicates of an already-delivered message are just
  /// re-ACKed); null (the default) keeps the pre-overload behavior
  /// bit-identical. A rejected message costs an overload-capped retry
  /// schedule driven by the server's retry_after, not the standard backoff
  /// ladder.
  void SetAdmissionHook(AdmissionHook hook) { admission_ = std::move(hook); }

  /// Overload NACKs processed at senders (counts retries and give-ups).
  uint64_t overload_rejects() const { return overload_rejects_; }

  /// Messages currently awaiting an ACK.
  std::size_t in_flight() const { return pending_.size(); }

  const ReliableTransportOptions& options() const { return options_; }

 private:
  struct Pending {
    MsgId id = 0;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    std::size_t bytes = 0;
    MessageType type = MessageType::kCount;
    std::size_t attempts = 0;  // attempts issued so far
    bool settled = false;      // acked or given up
    /// Overload NACKs received; capped by kMaxOverloadRetries.
    std::size_t overload_rejects = 0;
    /// True while waiting out a server-suggested retry-after; suppresses
    /// the standard timeout path so a shed message is retried exactly once
    /// per NACK instead of storming.
    bool overload_wait = false;
    /// Message ended in give-up because the peer shed it (peer is alive —
    /// give-up must not raise dead-peer suspicion).
    bool overloaded = false;
    SimTime sent_at = 0.0;  // first-attempt time, for settle latency
    /// Logical-message span: every physical attempt (and its ACK) nests
    /// under it, so one trace shows the full retry history.
    TraceContext trace;
    std::function<void()> on_deliver;
    std::function<void()> on_acked;
    std::function<void()> on_give_up;
  };

  void Attempt(std::shared_ptr<Pending> p);
  void HandleTimeout(std::shared_ptr<Pending> p, std::size_t attempt);
  void HandleAck(std::shared_ptr<Pending> p);
  void HandleOverloadNack(std::shared_ptr<Pending> p, double retry_after);
  void GiveUp(std::shared_ptr<Pending> p);
  void RaiseSuspicion(NodeId node);

  Simulator& sim_;
  PhysicalNetwork& net_;
  ReliableTransportOptions options_;
  MsgId next_id_ = 1;
  std::unordered_map<MsgId, std::shared_ptr<Pending>> pending_;
  /// Message ids whose payload already ran at the receiver (dedup).
  std::unordered_set<MsgId> delivered_;
  /// Consecutive give-ups per target peer.
  std::vector<std::size_t> suspicion_;
  SuspicionListener suspicion_listener_;
  AdmissionHook admission_;
  uint64_t overload_rejects_ = 0;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PSIM_TRANSPORT_H_
