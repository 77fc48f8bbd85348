#include <gtest/gtest.h>

#include "p2psim/transport.h"

namespace p2pdt {
namespace {

struct Fixture {
  Simulator sim;
  PhysicalNetwork net;
  ReliableTransport transport;

  explicit Fixture(std::size_t nodes, PhysicalNetworkOptions popt = {},
                   ReliableTransportOptions topt = {})
      : net(sim, popt), transport(sim, net, topt) {
    net.AddNodes(nodes);
  }
};

TEST(OverloadTransportTest, NullHookLeavesDeliveryUnchanged) {
  Fixture f(4);
  int delivered = 0, acked = 0;
  f.transport.SendReliable(
      0, 1, 1000, MessageType::kPredictionRequest, [&] { ++delivered; },
      [&] { ++acked; }, nullptr);
  f.sim.RunUntil(60.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(acked, 1);
  EXPECT_EQ(f.net.stats().dropped(DropReason::kOverloadShed), 0u);
  EXPECT_EQ(f.transport.overload_rejects(), 0u);
}

TEST(OverloadTransportTest, AcceptingHookDelaysDelivery) {
  Fixture f(4);
  f.transport.SetAdmissionHook([](NodeId, MessageType) {
    AdmissionVerdict v;
    v.delay = 0.5;
    return v;
  });
  int delivered = 0;
  double delivered_at = -1.0;
  f.transport.SendReliable(
      0, 1, 1000, MessageType::kPredictionRequest,
      [&] {
        ++delivered;
        delivered_at = f.sim.Now();
      },
      nullptr, nullptr);
  f.sim.RunUntil(60.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_GE(delivered_at, 0.5);
  // Delayed service must not look like loss: no retransmits of the data.
  EXPECT_EQ(f.net.stats().give_ups(), 0u);
}

TEST(OverloadTransportTest, ShedThenAcceptRetriesAtRetryAfter) {
  Fixture f(4);
  int sheds_left = 1;
  f.transport.SetAdmissionHook([&](NodeId, MessageType) {
    AdmissionVerdict v;
    if (sheds_left > 0) {
      --sheds_left;
      v.accept = false;
      v.retry_after = 2.0;
    }
    return v;
  });
  int delivered = 0, acked = 0, gave_up = 0;
  double delivered_at = -1.0;
  f.transport.SendReliable(
      0, 1, 1000, MessageType::kPredictionRequest,
      [&] {
        ++delivered;
        delivered_at = f.sim.Now();
      },
      [&] { ++acked; }, [&] { ++gave_up; });
  f.sim.RunUntil(120.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(acked, 1);
  EXPECT_EQ(gave_up, 0);
  // The retry honored the server-suggested retry-after (plus jitter), not
  // the much-shorter default RTO backoff.
  EXPECT_GE(delivered_at, 2.0);
  EXPECT_EQ(f.net.stats().dropped(DropReason::kOverloadShed), 1u);
  EXPECT_EQ(f.transport.overload_rejects(), 1u);
  EXPECT_GT(f.net.stats().messages_sent(MessageType::kOverloadNack), 0u);
}

TEST(OverloadTransportTest, PersistentOverloadGivesUpWithoutSuspicion) {
  Fixture f(4);
  f.transport.SetAdmissionHook([](NodeId, MessageType) {
    AdmissionVerdict v;
    v.accept = false;
    v.retry_after = 0.5;
    return v;
  });
  int delivered = 0, gave_up = 0;
  f.transport.SendReliable(
      0, 1, 1000, MessageType::kPredictionRequest, [&] { ++delivered; },
      nullptr, [&] { ++gave_up; });
  f.sim.RunUntil(300.0);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(gave_up, 1);
  // Initial attempt + kMaxOverloadRetries retries, each shed and NACKed.
  EXPECT_EQ(f.net.stats().dropped(DropReason::kOverloadShed),
            1 + ReliableTransport::kMaxOverloadRetries);
  EXPECT_EQ(f.transport.overload_rejects(),
            1 + ReliableTransport::kMaxOverloadRetries);
  // An overloaded server answered every attempt — that is proof of life,
  // not death: the failure detector must NOT suspect it.
  EXPECT_FALSE(f.transport.IsSuspected(1));
}

TEST(OverloadTransportTest, OverloadDropReasonIsDistinct) {
  // One shed on a clean network: the overload ledger moves, the loss /
  // churn / fault ledgers do not.
  Fixture f(4);
  bool first = true;
  f.transport.SetAdmissionHook([&](NodeId, MessageType) {
    AdmissionVerdict v;
    if (first) {
      first = false;
      v.accept = false;
      v.retry_after = 0.2;
    }
    return v;
  });
  int delivered = 0;
  f.transport.SendReliable(0, 1, 100, MessageType::kPredictionRequest,
                           [&] { ++delivered; }, nullptr, nullptr);
  f.sim.RunUntil(60.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(f.net.stats().dropped(DropReason::kOverloadShed), 1u);
  EXPECT_EQ(f.net.stats().dropped(DropReason::kRandomLoss), 0u);
  EXPECT_EQ(f.net.stats().dropped(DropReason::kInjectedFault), 0u);
  EXPECT_EQ(f.net.stats().dropped(DropReason::kSendOffline), 0u);
  EXPECT_EQ(f.net.stats().dropped(DropReason::kRecvOffline), 0u);
}

TEST(OverloadTransportTest, HookOnlySeesFreshArrivals) {
  // Drop ACKs for a while so the data is retransmitted: the admission hook
  // must be consulted once per payload, not once per duplicate arrival.
  Fixture f(4);
  f.net.SetFaultHook([&](NodeId, NodeId, MessageType type, SimTime now) {
    FaultDecision d;
    d.drop = (type == MessageType::kAck && now < 2.0);
    return d;
  });
  int hook_calls = 0;
  f.transport.SetAdmissionHook([&](NodeId, MessageType) {
    ++hook_calls;
    return AdmissionVerdict{};
  });
  int delivered = 0, acked = 0;
  f.transport.SendReliable(
      0, 1, 1000, MessageType::kPredictionRequest, [&] { ++delivered; },
      [&] { ++acked; }, nullptr);
  f.sim.RunUntil(120.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(acked, 1);
  EXPECT_GT(f.net.stats().retransmits(), 0u);
  EXPECT_EQ(hook_calls, 1);
}

TEST(OverloadTransportTest, OverloadNackClearsPriorSuspicion) {
  // A peer that earlier timed out (suspected) but now sheds under load is
  // alive: the NACK must clear the suspicion like an ACK would.
  ReliableTransportOptions topt;
  topt.max_retries = 1;
  topt.suspicion_threshold = 1;
  Fixture f(4, {}, topt);

  // Phase 1: all traffic to node 1 is dropped — give-up raises suspicion.
  f.net.SetFaultHook([&](NodeId, NodeId to, MessageType, SimTime now) {
    FaultDecision d;
    d.drop = (to == 1 && now < 5.0);
    return d;
  });
  int gave_up = 0;
  f.transport.SendReliable(0, 1, 100, MessageType::kPredictionRequest,
                           nullptr, nullptr, [&] { ++gave_up; });
  f.sim.RunUntil(20.0);
  EXPECT_EQ(gave_up, 1);
  EXPECT_TRUE(f.transport.IsSuspected(1));

  // Phase 2: node 1 is reachable but overloaded; the shed NACK proves life.
  bool shed_once = true;
  f.transport.SetAdmissionHook([&](NodeId, MessageType) {
    AdmissionVerdict v;
    if (shed_once) {
      shed_once = false;
      v.accept = false;
      v.retry_after = 0.2;
    }
    return v;
  });
  int delivered = 0;
  f.transport.SendReliable(0, 1, 100, MessageType::kPredictionRequest,
                           [&] { ++delivered; }, nullptr, nullptr);
  f.sim.RunUntil(60.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_FALSE(f.transport.IsSuspected(1));
}

}  // namespace
}  // namespace p2pdt
