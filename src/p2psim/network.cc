#include "p2psim/network.h"

#include <cassert>
#include <cmath>

#include "p2psim/trace.h"

namespace p2pdt {

const char* AdversaryBehaviorToString(AdversaryBehavior behavior) {
  switch (behavior) {
    case AdversaryBehavior::kHonest:
      return "honest";
    case AdversaryBehavior::kLabelFlip:
      return "label_flip";
    case AdversaryBehavior::kGarbageModel:
      return "garbage_model";
    case AdversaryBehavior::kDimensionMismatch:
      return "dimension_mismatch";
    case AdversaryBehavior::kAccuracyInflate:
      return "accuracy_inflate";
    case AdversaryBehavior::kVoteSpam:
      return "vote_spam";
  }
  return "unknown";
}

PhysicalNetwork::PhysicalNetwork(Simulator& sim,
                                 PhysicalNetworkOptions options)
    : sim_(sim), options_(options), rng_(options.seed) {}

NodeId PhysicalNetwork::AddNode() {
  coords_.emplace_back(rng_.NextDouble(), rng_.NextDouble());
  online_.push_back(true);
  ++num_online_;
  return coords_.size() - 1;
}

void PhysicalNetwork::AddNodes(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) AddNode();
}

void PhysicalNetwork::SetOnline(NodeId node, bool online) {
  assert(node < online_.size());
  if (online_[node] == online) return;
  online_[node] = online;
  num_online_ += online ? 1 : -1;
}

double PhysicalNetwork::Latency(NodeId from, NodeId to) const {
  assert(from < coords_.size() && to < coords_.size());
  if (from == to) return 0.0;
  double dx = coords_[from].first - coords_[to].first;
  double dy = coords_[from].second - coords_[to].second;
  // Unit-square diagonal is sqrt(2); scale distance into [min, max].
  double frac = std::sqrt(dx * dx + dy * dy) / std::sqrt(2.0);
  return options_.min_latency +
         frac * (options_.max_latency - options_.min_latency);
}

void PhysicalNetwork::Send(NodeId from, NodeId to, std::size_t bytes,
                           MessageType type,
                           std::function<void()> on_deliver,
                           std::function<void()> on_drop) {
  assert(from < online_.size() && to < online_.size());
  stats_.RecordSend(type, bytes);

  // Message span: child of whatever span is being executed right now, so
  // causality flows through the event queue without an explicit message
  // object. Tracing draws no randomness and schedules nothing — the event
  // sequence is bit-identical with or without it.
  TraceContext span;
  if (tracer_ != nullptr) {
    span = tracer_->StartSpan(MessageTypeToString(type), sim_.Now(), from,
                              tracer_->current(), "message");
    tracer_->AddArg(span, "to", std::to_string(to));
  }

  if (!online_[from]) {
    stats_.RecordDrop(type, DropReason::kSendOffline);
    if (tracer_ != nullptr) {
      tracer_->AddArg(span, "drop",
                      DropReasonToString(DropReason::kSendOffline));
      tracer_->EndSpan(span, sim_.Now());
    }
    if (on_drop) {
      sim_.Schedule(0.0, [this, span, on_drop = std::move(on_drop)] {
        ScopedTraceContext scope(tracer_, span);
        on_drop();
      });
    }
    return;
  }

  double delay = Latency(from, to) +
                 static_cast<double>(bytes) / options_.bandwidth_bytes_per_sec;
  // The baseline loss draw always happens, even when a fault rule already
  // condemned the message — identical RNG streams with and without a plan.
  bool lost_random = rng_.Bernoulli(options_.loss_rate);
  bool lost_injected = false;
  if (fault_hook_) {
    FaultDecision fd = fault_hook_(from, to, type, sim_.Now());
    lost_injected = fd.drop;
    delay += fd.extra_latency;
  }

  sim_.Schedule(delay, [this, to, type, lost_random, lost_injected, span,
                        on_deliver = std::move(on_deliver),
                        on_drop = std::move(on_drop)]() {
    if (lost_injected || lost_random || !online_[to]) {
      DropReason reason = lost_injected  ? DropReason::kInjectedFault
                          : lost_random ? DropReason::kRandomLoss
                                        : DropReason::kRecvOffline;
      stats_.RecordDrop(type, reason);
      if (tracer_ != nullptr) {
        tracer_->AddArg(span, "drop", DropReasonToString(reason));
        tracer_->EndSpan(span, sim_.Now());
      }
      if (on_drop) {
        ScopedTraceContext scope(tracer_, span);
        on_drop();
      }
      return;
    }
    stats_.RecordDelivery(type);
    if (tracer_ != nullptr) tracer_->EndSpan(span, sim_.Now());
    if (on_deliver) {
      // The receiver reacts on behalf of this message: responses, ACKs and
      // forwarded hops all become children of the message span.
      ScopedTraceContext scope(tracer_, span);
      on_deliver();
    }
  });
}

}  // namespace p2pdt
