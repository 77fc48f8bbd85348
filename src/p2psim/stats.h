#ifndef P2PDT_P2PSIM_STATS_H_
#define P2PDT_P2PSIM_STATS_H_

#include <array>
#include <cstdint>
#include <numeric>
#include <string>

namespace p2pdt {

/// Classification of simulated messages, so experiments can break
/// communication cost down by purpose (training vs. prediction vs. overlay
/// maintenance) the way the CEMPaR/PACE papers report it.
enum class MessageType : uint8_t {
  kOverlayMaintenance = 0,  // joins, stabilization, finger fixes
  kLookup,                  // DHT routing hops
  kModelUpload,             // CEMPaR: SVs to super-peer
  kModelBroadcast,          // PACE: linear models + centroids to all peers
  kPredictionRequest,       // untagged vector sent for tagging
  kPredictionResponse,      // predicted tags coming back
  kDataTransfer,            // raw training data (centralized baseline)
  kGossip,                  // unstructured overlay dissemination
  kAck,                     // reliable-transport acknowledgement
  kModelReplicate,          // CEMPaR: regional model to standby super-peer
  kOverloadNack,            // typed kOverloaded reject from a shedding peer
  kCount,                   // sentinel
};

const char* MessageTypeToString(MessageType type);

/// Why a message failed to reach its receiver. Fault-injection experiments
/// need this breakdown: "dropped" alone cannot distinguish churn losses
/// from injected faults from baseline random loss.
enum class DropReason : uint8_t {
  kSendOffline = 0,  // sender was offline at send time
  kRecvOffline,      // receiver was offline at delivery time
  kRandomLoss,       // baseline probabilistic loss (loss_rate)
  kInjectedFault,    // dropped by an armed fault plan
  kOverloadShed,     // shed by admission control at an overloaded server
  kCount,            // sentinel
};

const char* DropReasonToString(DropReason reason);

/// Message/byte accounting for one simulation run. The headline
/// "communication cost" numbers in the experiments come straight from here;
/// the retry/ACK counters quantify the overhead the reliable transport pays
/// for its delivery guarantees.
class NetworkStats {
 public:
  static constexpr std::size_t kNumTypes =
      static_cast<std::size_t>(MessageType::kCount);
  static constexpr std::size_t kNumDropReasons =
      static_cast<std::size_t>(DropReason::kCount);

  void RecordSend(MessageType type, std::size_t bytes);
  void RecordDelivery(MessageType type);
  void RecordDrop(MessageType type, DropReason reason);

  /// Reliable-transport accounting (the transport layer drives these).
  void RecordRetransmit(MessageType type);
  void RecordAckReceived();
  void RecordGiveUp(MessageType type);

  /// Totals over every message type (each sums its per-type array).
  uint64_t messages_sent() const { return Sum(sent_); }
  uint64_t messages_delivered() const { return Sum(delivered_); }
  uint64_t messages_dropped() const { return Sum(dropped_); }
  uint64_t bytes_sent() const { return Sum(bytes_); }

  uint64_t messages_sent(MessageType type) const {
    return sent_[static_cast<std::size_t>(type)];
  }
  uint64_t delivered(MessageType type) const {
    return delivered_[static_cast<std::size_t>(type)];
  }
  uint64_t bytes_sent(MessageType type) const {
    return bytes_[static_cast<std::size_t>(type)];
  }
  uint64_t dropped(MessageType type) const {
    return dropped_[static_cast<std::size_t>(type)];
  }
  uint64_t dropped(DropReason reason) const {
    return dropped_by_reason_[static_cast<std::size_t>(reason)];
  }

  uint64_t retransmits() const { return Sum(retransmits_); }
  uint64_t retransmits(MessageType type) const {
    return retransmits_[static_cast<std::size_t>(type)];
  }
  uint64_t acks_received() const { return acks_received_; }
  uint64_t give_ups() const { return Sum(give_ups_); }
  uint64_t give_ups(MessageType type) const {
    return give_ups_[static_cast<std::size_t>(type)];
  }

  /// Fraction of sent messages that were delivered (1.0 when nothing was
  /// sent, so a quiet network reads as healthy).
  double delivery_rate() const {
    const uint64_t sent = messages_sent();
    return sent == 0 ? 1.0
                     : static_cast<double>(messages_delivered()) /
                           static_cast<double>(sent);
  }

  void Reset();

  /// Multi-line per-type breakdown plus drop-reason and retry summaries.
  std::string ToString() const;

 private:
  static uint64_t Sum(const std::array<uint64_t, kNumTypes>& per_type) {
    return std::accumulate(per_type.begin(), per_type.end(), uint64_t{0});
  }

  std::array<uint64_t, kNumTypes> sent_{};
  std::array<uint64_t, kNumTypes> bytes_{};
  std::array<uint64_t, kNumTypes> delivered_{};
  std::array<uint64_t, kNumTypes> dropped_{};
  std::array<uint64_t, kNumTypes> retransmits_{};
  std::array<uint64_t, kNumTypes> give_ups_{};
  std::array<uint64_t, kNumDropReasons> dropped_by_reason_{};
  uint64_t acks_received_ = 0;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PSIM_STATS_H_
