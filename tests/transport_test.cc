#include "p2psim/transport.h"

#include <gtest/gtest.h>

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

TEST(TransportTest, DeliversAndAcksOnCleanNetwork) {
  Fixture f(4);
  int delivered = 0, acked = 0, gave_up = 0;
  f.transport.SendReliable(
      0, 1, 1000, MessageType::kModelUpload, [&] { ++delivered; },
      [&] { ++acked; }, [&] { ++gave_up; });
  f.sim.RunUntil(60.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(acked, 1);
  EXPECT_EQ(gave_up, 0);
  EXPECT_EQ(f.transport.in_flight(), 0u);
  EXPECT_EQ(f.net.stats().retransmits(), 0u);
  EXPECT_EQ(f.net.stats().acks_received(), 1u);
  EXPECT_EQ(f.net.stats().messages_sent(MessageType::kAck), 1u);
}

TEST(TransportTest, RetriesUntilDeliveredUnderLoss) {
  PhysicalNetworkOptions popt;
  popt.loss_rate = 0.3;
  ReliableTransportOptions topt;
  topt.max_retries = 10;
  Fixture f(4, popt, topt);

  int delivered = 0, acked = 0, gave_up = 0;
  for (int i = 0; i < 20; ++i) {
    f.transport.SendReliable(
        0, 1, 500, MessageType::kModelUpload, [&] { ++delivered; },
        [&] { ++acked; }, [&] { ++gave_up; });
  }
  f.sim.RunUntil(600.0);
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(acked, 20);
  EXPECT_EQ(gave_up, 0);
  // Under 30% loss some first attempts must have failed.
  EXPECT_GT(f.net.stats().retransmits(), 0u);
  EXPECT_GT(f.net.stats().dropped(DropReason::kRandomLoss), 0u);
}

TEST(TransportTest, DuplicateDataDeliveriesAreDeduped) {
  // Drop every ACK for a while: data keeps arriving, the payload must still
  // run exactly once, and every duplicate arrival is re-ACKed so the sender
  // eventually settles once the ACK channel heals.
  Fixture f(4);
  f.net.SetFaultHook([&](NodeId, NodeId, MessageType type, SimTime now) {
    FaultDecision d;
    d.drop = (type == MessageType::kAck && now < 2.0);
    return d;
  });
  int delivered = 0, acked = 0;
  f.transport.SendReliable(
      0, 1, 1000, MessageType::kModelUpload, [&] { ++delivered; },
      [&] { ++acked; }, nullptr);
  f.sim.RunUntil(120.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(acked, 1);
  EXPECT_GT(f.net.stats().retransmits(), 0u);
  EXPECT_GT(f.net.stats().dropped(DropReason::kInjectedFault), 0u);
  // Every data arrival was ACKed, duplicates included.
  EXPECT_GT(f.net.stats().messages_sent(MessageType::kAck), 1u);
}

TEST(TransportTest, GivesUpOnDeadPeerAfterBoundedRetries) {
  ReliableTransportOptions topt;
  topt.max_retries = 2;
  Fixture f(4, {}, topt);
  f.net.SetOnline(1, false);

  int delivered = 0, acked = 0, gave_up = 0;
  f.transport.SendReliable(
      0, 1, 1000, MessageType::kModelUpload, [&] { ++delivered; },
      [&] { ++acked; }, [&] { ++gave_up; });
  f.sim.RunUntil(600.0);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(acked, 0);
  EXPECT_EQ(gave_up, 1);
  EXPECT_EQ(f.transport.in_flight(), 0u);
  // Initial attempt + max_retries retransmissions, all dropped at the
  // receiver.
  EXPECT_EQ(f.net.stats().messages_sent(MessageType::kModelUpload), 3u);
  EXPECT_EQ(f.net.stats().retransmits(), 2u);
  EXPECT_EQ(f.net.stats().give_ups(), 1u);
  EXPECT_EQ(f.net.stats().dropped(DropReason::kRecvOffline), 3u);
}

TEST(TransportTest, ZeroRetriesMeansSingleAttempt) {
  ReliableTransportOptions topt;
  topt.max_retries = 0;
  Fixture f(4, {}, topt);
  f.net.SetOnline(1, false);
  int gave_up = 0;
  f.transport.SendReliable(0, 1, 100, MessageType::kModelUpload, nullptr,
                           nullptr, [&] { ++gave_up; });
  f.sim.RunUntil(60.0);
  EXPECT_EQ(gave_up, 1);
  EXPECT_EQ(f.net.stats().messages_sent(MessageType::kModelUpload), 1u);
  EXPECT_EQ(f.net.stats().retransmits(), 0u);
}

TEST(TransportTest, PeerReturningMidBackoffGetsMessageExactlyOnce) {
  // Churn × retry: the receiver is offline for the first attempts and
  // returns before the retry budget runs out — the payload must run exactly
  // once and the sender must settle with an ACK, not a give-up.
  ReliableTransportOptions topt;
  topt.max_retries = 8;
  Fixture f(4, {}, topt);
  f.net.SetOnline(1, false);
  f.sim.Schedule(1.5, [&] { f.net.SetOnline(1, true); });

  int delivered = 0, acked = 0, gave_up = 0;
  f.transport.SendReliable(
      0, 1, 1000, MessageType::kModelUpload, [&] { ++delivered; },
      [&] { ++acked; }, [&] { ++gave_up; });
  f.sim.RunUntil(600.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(acked, 1);
  EXPECT_EQ(gave_up, 0);
  EXPECT_GT(f.net.stats().retransmits(), 0u);
  EXPECT_GT(f.net.stats().dropped(DropReason::kRecvOffline), 0u);
}

TEST(TransportTest, SuspicionAfterConsecutiveGiveUpsClearedByAck) {
  ReliableTransportOptions topt;
  topt.max_retries = 1;
  topt.suspicion_threshold = 2;
  Fixture f(4, {}, topt);
  f.net.SetOnline(1, false);

  std::vector<NodeId> suspects;
  f.transport.SetSuspicionListener(
      [&](NodeId node) { suspects.push_back(node); });

  f.transport.SendReliable(0, 1, 100, MessageType::kModelUpload, nullptr);
  f.sim.RunUntil(120.0);
  EXPECT_FALSE(f.transport.IsSuspected(1));
  EXPECT_EQ(f.transport.SuspicionLevel(1), 1u);

  f.transport.SendReliable(0, 1, 100, MessageType::kModelUpload, nullptr);
  f.sim.RunUntil(240.0);
  EXPECT_TRUE(f.transport.IsSuspected(1));
  // The listener fires exactly on the transition into suspicion.
  EXPECT_EQ(suspects, (std::vector<NodeId>{1}));

  // Proof of life clears the suspicion.
  f.net.SetOnline(1, true);
  bool acked = false;
  f.transport.SendReliable(0, 1, 100, MessageType::kModelUpload, nullptr,
                           [&] { acked = true; });
  f.sim.RunUntil(360.0);
  EXPECT_TRUE(acked);
  EXPECT_FALSE(f.transport.IsSuspected(1));
  EXPECT_EQ(f.transport.SuspicionLevel(1), 0u);
}

TEST(TransportTest, BackoffGrowsAndJitterIsDeterministic) {
  Fixture f(2);
  const ReliableTransportOptions& opt = f.transport.options();
  double base = 0.5;
  double prev = f.transport.RetransmissionTimeout(7, 0, base);
  for (std::size_t attempt = 1; attempt < 4; ++attempt) {
    double rto = f.transport.RetransmissionTimeout(7, attempt, base);
    // Exponential growth survives the ±jitter band.
    EXPECT_GT(rto, prev * (opt.backoff_factor *
                           (1.0 - opt.jitter) / (1.0 + opt.jitter)));
    // Same (id, attempt) → bit-identical timeout: the schedule is keyed by
    // message identity, never by call site or thread.
    EXPECT_DOUBLE_EQ(rto, f.transport.RetransmissionTimeout(7, attempt, base));
    prev = rto;
  }
  // Different message ids draw different jitter.
  EXPECT_NE(f.transport.RetransmissionTimeout(7, 1, base),
            f.transport.RetransmissionTimeout(8, 1, base));
}

TEST(TransportTest, TimeoutsClampToConfiguredRange) {
  Fixture f(2);
  EXPECT_GE(f.transport.RetransmissionTimeout(1, 0, 1e-6),
            ReliableTransport::kRtoMin);
  EXPECT_LE(f.transport.RetransmissionTimeout(1, 20, 0.5),
            ReliableTransport::kRtoMax);
}

TEST(TransportTest, RttEstimateCoversBothDirections) {
  Fixture f(2);
  double rtt = f.transport.EstimateRtt(0, 1, 1000);
  EXPECT_GE(rtt, 2.0 * f.net.Latency(0, 1));
}

}  // namespace
}  // namespace p2pdt
