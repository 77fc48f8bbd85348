#include "p2pml/service_host.h"

#include <memory>
#include <utility>

#include "common/logging.h"

namespace p2pdt {

namespace {

/// Completion slot shared with the protocol's callback. Heap-allocated and
/// reference-counted so that an abandoned request (budget exhausted) whose
/// callback fires during a *later* request writes into harmless memory
/// instead of a dead stack frame.
struct PredictSlot {
  bool done = false;
  P2PPrediction prediction;
};

}  // namespace

P2PPrediction ServiceHost::Predict(NodeId requester, const SparseVector& x) {
  auto slot = std::make_shared<PredictSlot>();
  classifier_->Predict(requester, x, [slot](P2PPrediction p) {
    slot->prediction = std::move(p);
    slot->done = true;
  });
  const double deadline = sim_->Now() + kMaxSimSecondsPerRequest;
  std::size_t steps = 0;
  while (!slot->done) {
    if (steps >= kMaxEventsPerRequest || sim_->Now() > deadline) {
      // The protocol is spinning on recurring maintenance events or wedged;
      // answer failure rather than stall the serving thread. The abandoned
      // callback keeps `slot` alive, so a late completion is harmless.
      P2PDT_LOG(Warning) << "predict budget exhausted after " << steps
                         << " events (sim now=" << sim_->Now() << ")";
      P2PPrediction failed;
      failed.success = false;
      return failed;
    }
    if (!sim_->Step()) {
      // Queue drained without an answer: the protocol dropped the request
      // (e.g. every serving peer offline). Fail cleanly.
      P2PPrediction failed;
      failed.success = false;
      return failed;
    }
    ++steps;
  }
  return slot->prediction;
}

}  // namespace p2pdt
