#include "p2psim/stats.h"

#include <cstdio>

#include "common/string_util.h"

namespace p2pdt {

const char* MessageTypeToString(MessageType type) {
  switch (type) {
    case MessageType::kOverlayMaintenance:
      return "overlay_maintenance";
    case MessageType::kLookup:
      return "lookup";
    case MessageType::kModelUpload:
      return "model_upload";
    case MessageType::kModelBroadcast:
      return "model_broadcast";
    case MessageType::kPredictionRequest:
      return "prediction_request";
    case MessageType::kPredictionResponse:
      return "prediction_response";
    case MessageType::kDataTransfer:
      return "data_transfer";
    case MessageType::kGossip:
      return "gossip";
    case MessageType::kAck:
      return "ack";
    case MessageType::kModelReplicate:
      return "model_replicate";
    case MessageType::kOverloadNack:
      return "overload_nack";
    case MessageType::kCount:
      return "count";
  }
  return "unknown";
}

const char* DropReasonToString(DropReason reason) {
  switch (reason) {
    case DropReason::kSendOffline:
      return "send_offline";
    case DropReason::kRecvOffline:
      return "recv_offline";
    case DropReason::kRandomLoss:
      return "random_loss";
    case DropReason::kInjectedFault:
      return "injected_fault";
    case DropReason::kOverloadShed:
      return "overload_shed";
    case DropReason::kCount:
      return "count";
  }
  return "unknown";
}

void NetworkStats::RecordSend(MessageType type, std::size_t bytes) {
  std::size_t i = static_cast<std::size_t>(type);
  ++sent_[i];
  bytes_[i] += bytes;
}

void NetworkStats::RecordDelivery(MessageType type) {
  ++delivered_[static_cast<std::size_t>(type)];
}

void NetworkStats::RecordDrop(MessageType type, DropReason reason) {
  ++dropped_[static_cast<std::size_t>(type)];
  ++dropped_by_reason_[static_cast<std::size_t>(reason)];
}

void NetworkStats::RecordRetransmit(MessageType type) {
  ++retransmits_[static_cast<std::size_t>(type)];
}

void NetworkStats::RecordAckReceived() { ++acks_received_; }

void NetworkStats::RecordGiveUp(MessageType type) {
  ++give_ups_[static_cast<std::size_t>(type)];
}

void NetworkStats::Reset() {
  sent_.fill(0);
  bytes_.fill(0);
  delivered_.fill(0);
  dropped_.fill(0);
  retransmits_.fill(0);
  give_ups_.fill(0);
  dropped_by_reason_.fill(0);
  acks_received_ = 0;
}

std::string NetworkStats::ToString() const {
  std::string out;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "total: %llu msgs, %s, %llu delivered, %llu dropped\n",
                static_cast<unsigned long long>(messages_sent()),
                HumanBytes(static_cast<double>(bytes_sent())).c_str(),
                static_cast<unsigned long long>(messages_delivered()),
                static_cast<unsigned long long>(messages_dropped()));
  out += buf;
  for (std::size_t i = 0; i < kNumTypes; ++i) {
    if (sent_[i] == 0 && dropped_[i] == 0) continue;
    std::snprintf(buf, sizeof(buf), "  %-20s %10llu msgs %12s\n",
                  MessageTypeToString(static_cast<MessageType>(i)),
                  static_cast<unsigned long long>(sent_[i]),
                  HumanBytes(static_cast<double>(bytes_[i])).c_str());
    out += buf;
  }
  if (messages_dropped() > 0) {
    out += "drops by reason:\n";
    for (std::size_t i = 0; i < kNumDropReasons; ++i) {
      if (dropped_by_reason_[i] == 0) continue;
      std::snprintf(buf, sizeof(buf), "  %-20s %10llu msgs\n",
                    DropReasonToString(static_cast<DropReason>(i)),
                    static_cast<unsigned long long>(dropped_by_reason_[i]));
      out += buf;
    }
  }
  if (retransmits() > 0 || acks_received_ > 0 || give_ups() > 0) {
    std::snprintf(buf, sizeof(buf),
                  "reliable transport: %llu retransmits, %llu acks received, "
                  "%llu give-ups\n",
                  static_cast<unsigned long long>(retransmits()),
                  static_cast<unsigned long long>(acks_received_),
                  static_cast<unsigned long long>(give_ups()));
    out += buf;
  }
  return out;
}

}  // namespace p2pdt
