#include "p2psim/transport.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/rng.h"

namespace p2pdt {

namespace {

/// Initial retransmission timeout = kRtoMultiplier × estimated RTT
/// (propagation both ways plus data and ACK transmission time).
constexpr double kRtoMultiplier = 3.0;
/// Wire size of an acknowledgement and of an overload NACK.
constexpr std::size_t kAckBytes = 24;
constexpr std::size_t kNackBytes = 24;

}  // namespace

ReliableTransport::ReliableTransport(Simulator& sim, PhysicalNetwork& net,
                                     ReliableTransportOptions options)
    : sim_(sim), net_(net), options_(options) {
  options_.backoff_factor = std::max(1.0, options_.backoff_factor);
  options_.jitter = std::clamp(options_.jitter, 0.0, 0.9);
}

double ReliableTransport::EstimateRtt(NodeId from, NodeId to,
                                      std::size_t bytes) const {
  double bw = net_.options().bandwidth_bytes_per_sec;
  return 2.0 * net_.Latency(from, to) +
         static_cast<double>(bytes + kAckBytes) / bw;
}

double ReliableTransport::RetransmissionTimeout(MsgId id, std::size_t attempt,
                                                double base_rto) const {
  double rto = base_rto;
  for (std::size_t i = 0; i < attempt; ++i) rto *= options_.backoff_factor;
  if (options_.jitter > 0.0) {
    // Jitter stream keyed by (seed, msg_id, attempt): independent of thread
    // count and of every other message's schedule.
    Rng jitter_rng(DeriveSeed(options_.seed, id, attempt));
    rto *= jitter_rng.Uniform(1.0 - options_.jitter, 1.0 + options_.jitter);
  }
  return std::clamp(rto, kRtoMin, kRtoMax);
}

ReliableTransport::MsgId ReliableTransport::SendReliable(
    NodeId from, NodeId to, std::size_t bytes, MessageType type,
    std::function<void()> on_deliver, std::function<void()> on_acked,
    std::function<void()> on_give_up) {
  auto p = std::make_shared<Pending>();
  p->id = next_id_++;
  p->from = from;
  p->to = to;
  p->bytes = bytes;
  p->type = type;
  p->on_deliver = std::move(on_deliver);
  p->on_acked = std::move(on_acked);
  p->on_give_up = std::move(on_give_up);
  p->sent_at = sim_.Now();
  if (Tracer* tracer = net_.tracer()) {
    p->trace = tracer->StartSpan(
        std::string("reliable/") + MessageTypeToString(type), sim_.Now(),
        from, tracer->current(), "transport");
    tracer->AddArg(p->trace, "to", std::to_string(to));
    tracer->AddArg(p->trace, "msg_id", std::to_string(p->id));
  }
  pending_.emplace(p->id, p);
  Attempt(p);
  return p->id;
}

void ReliableTransport::Attempt(std::shared_ptr<Pending> p) {
  const std::size_t attempt = p->attempts++;  // 0-based attempt index
  // Each physical attempt (and the ACK the receiver returns) nests under
  // the logical-message span, including retransmissions fired from timeout
  // events where no context would otherwise be live.
  ScopedTraceContext scope(net_.tracer(), p->trace);
  net_.Send(
      p->from, p->to, p->bytes, p->type,
      [this, p] {
        // Receiver side: run the payload exactly once per logical message,
        // then (re-)ACK — a duplicate data arrival still deserves an ACK
        // because the previous one may have been lost.
        if (admission_ && delivered_.count(p->id) == 0) {
          AdmissionVerdict v = admission_(p->to, p->type);
          if (!v.accept) {
            // Shed: the payload never runs. A typed NACK carries the
            // server's retry-after back; no ACK, so the message stays
            // pending at the sender.
            net_.stats().RecordDrop(p->type, DropReason::kOverloadShed);
            if (Tracer* tracer = net_.tracer()) {
              tracer->Instant("overload_shed", sim_.Now(), p->to, p->trace);
            }
            const double retry_after = v.retry_after;
            net_.Send(p->to, p->from, kNackBytes,
                      MessageType::kOverloadNack,
                      [this, p, retry_after] {
                        HandleOverloadNack(p, retry_after);
                      },
                      nullptr);
            return;
          }
          // Accepted: mark delivered *now* (a retransmission arriving while
          // the payload waits in the serving queue must not enqueue it
          // twice), then run the payload after the queueing delay.
          delivered_.insert(p->id);
          if (p->on_deliver) {
            if (v.delay > 0.0) {
              sim_.Schedule(v.delay, [p] { p->on_deliver(); });
            } else {
              p->on_deliver();
            }
          }
        } else if (delivered_.insert(p->id).second && p->on_deliver) {
          p->on_deliver();
        }
        net_.Send(p->to, p->from, kAckBytes, MessageType::kAck,
                  [this, p] { HandleAck(p); }, nullptr);
      },
      nullptr);

  double base_rto = kRtoMultiplier *
                    EstimateRtt(p->from, p->to, p->bytes);
  double timeout = RetransmissionTimeout(p->id, attempt, base_rto);
  sim_.Schedule(timeout, [this, p, attempt] { HandleTimeout(p, attempt); });
}

void ReliableTransport::HandleTimeout(std::shared_ptr<Pending> p,
                                      std::size_t attempt) {
  if (p->settled) return;
  // A server-suggested retry-after wait owns the retransmission schedule;
  // the standard backoff timer standing down is exactly the retry-storm
  // fix. (If the NACK itself was lost, overload_wait stays false and this
  // path still recovers the message.)
  if (p->overload_wait) return;
  // Only the timeout armed by the newest attempt may act; earlier ones are
  // stale (defensive — attempts are issued strictly one at a time).
  if (attempt + 1 != p->attempts) return;
  if (p->attempts > options_.max_retries) {
    GiveUp(std::move(p));
    return;
  }
  net_.stats().RecordRetransmit(p->type);
  if (Tracer* tracer = net_.tracer()) {
    tracer->Instant("retransmit", sim_.Now(), p->from, p->trace);
  }
  Attempt(std::move(p));
}

void ReliableTransport::HandleAck(std::shared_ptr<Pending> p) {
  if (p->settled) return;  // duplicate ACK
  p->settled = true;
  pending_.erase(p->id);
  net_.stats().RecordAckReceived();
  if (MetricsRegistry* metrics = net_.metrics()) {
    metrics
        ->GetHistogram("transport_settle_seconds",
                       {{"type", MessageTypeToString(p->type)},
                        {"outcome", "acked"}})
        .Observe(sim_.Now() - p->sent_at);
  }
  if (Tracer* tracer = net_.tracer()) {
    tracer->AddArg(p->trace, "attempts", std::to_string(p->attempts));
    tracer->AddArg(p->trace, "outcome", "acked");
    tracer->EndSpan(p->trace, sim_.Now());
  }
  // Proof of life: the peer answered, so any accumulated suspicion is
  // stale.
  if (p->to < suspicion_.size()) suspicion_[p->to] = 0;
  if (p->on_acked) {
    ScopedTraceContext scope(net_.tracer(), p->trace);
    p->on_acked();
  }
}

void ReliableTransport::HandleOverloadNack(std::shared_ptr<Pending> p,
                                           double retry_after) {
  if (p->settled) return;
  ++overload_rejects_;
  ++p->overload_rejects;
  // A NACK is proof of life: the peer is overloaded, not dead.
  if (p->to < suspicion_.size()) suspicion_[p->to] = 0;
  if (Tracer* tracer = net_.tracer()) {
    tracer->Instant("overload_nack", sim_.Now(), p->from, p->trace);
  }
  if (p->overload_rejects > kMaxOverloadRetries) {
    p->overloaded = true;
    GiveUp(std::move(p));
    return;
  }
  // Honor the server's retry-after (with deterministic jitter so a burst
  // of shed senders does not re-arrive in lockstep), suppressing the
  // standard backoff timer until the retry fires.
  double delay = std::max(retry_after, kRtoMin);
  if (options_.jitter > 0.0) {
    Rng jitter_rng(
        DeriveSeed(options_.seed ^ 0x0AD, p->id, p->overload_rejects));
    delay *= jitter_rng.Uniform(1.0, 1.0 + options_.jitter);
  }
  p->overload_wait = true;
  sim_.Schedule(delay, [this, p] {
    if (p->settled) return;
    p->overload_wait = false;
    net_.stats().RecordRetransmit(p->type);
    if (Tracer* tracer = net_.tracer()) {
      tracer->Instant("overload_retry", sim_.Now(), p->from, p->trace);
    }
    Attempt(p);
  });
}

void ReliableTransport::GiveUp(std::shared_ptr<Pending> p) {
  p->settled = true;
  pending_.erase(p->id);
  net_.stats().RecordGiveUp(p->type);
  if (MetricsRegistry* metrics = net_.metrics()) {
    metrics
        ->GetHistogram("transport_settle_seconds",
                       {{"type", MessageTypeToString(p->type)},
                        {"outcome", "give_up"}})
        .Observe(sim_.Now() - p->sent_at);
  }
  if (Tracer* tracer = net_.tracer()) {
    tracer->Instant("give_up", sim_.Now(), p->from, p->trace);
    tracer->AddArg(p->trace, "attempts", std::to_string(p->attempts));
    tracer->AddArg(p->trace, "outcome", "give_up");
    tracer->EndSpan(p->trace, sim_.Now());
  }
  // Suspicion is for peers that stopped answering. An overloaded peer
  // answered with NACKs — suspecting it would wrongly trigger standby
  // promotion and pile recovery traffic onto a peer already drowning.
  if (!p->overloaded) RaiseSuspicion(p->to);
  if (p->on_give_up) {
    ScopedTraceContext scope(net_.tracer(), p->trace);
    p->on_give_up();
  }
}

void ReliableTransport::RaiseSuspicion(NodeId node) {
  if (node >= suspicion_.size()) suspicion_.resize(node + 1, 0);
  ++suspicion_[node];
  if (suspicion_[node] == options_.suspicion_threshold &&
      suspicion_listener_) {
    suspicion_listener_(node);
  }
}

bool ReliableTransport::IsSuspected(NodeId node) const {
  return SuspicionLevel(node) >= options_.suspicion_threshold;
}

std::size_t ReliableTransport::SuspicionLevel(NodeId node) const {
  return node < suspicion_.size() ? suspicion_[node] : 0;
}

}  // namespace p2pdt
