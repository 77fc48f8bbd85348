#ifndef P2PDT_P2PML_SERVICE_HOST_H_
#define P2PDT_P2PML_SERVICE_HOST_H_

#include <cstdint>

#include "p2pml/p2p_classifier.h"
#include "p2psim/simulator.h"

namespace p2pdt {

/// Bridges the sim-time classifier API onto a synchronous call for the
/// real-socket service: P2PClassifier::Predict fires its callback from
/// simulated events, so ServiceHost issues the request and single-steps the
/// simulator until the callback lands. The caller's thread *is* the
/// simulator driver thread — exactly the discipline the epoll daemon keeps
/// by being single-threaded.
///
/// Bounded on two axes so a wedged protocol cannot wedge the daemon: a
/// per-request event budget (kMaxEventsPerRequest) and a simulated-time
/// budget (kMaxSimSecondsPerRequest). Exhausting either yields a failed
/// (success=false) prediction, never a hang.
class ServiceHost {
 public:
  static constexpr std::size_t kMaxEventsPerRequest = 1u << 22;
  static constexpr double kMaxSimSecondsPerRequest = 600.0;

  /// `sim` and `classifier` must outlive the host. The classifier must be
  /// trained (Setup + Train already driven to completion on `sim`).
  ServiceHost(Simulator* sim, P2PClassifier* classifier)
      : sim_(sim), classifier_(classifier) {}

  /// Synchronous predict: schedules the request and drains simulator events
  /// until the protocol answers (or a budget trips).
  P2PPrediction Predict(NodeId requester, const SparseVector& x);

 private:
  Simulator* sim_;
  P2PClassifier* classifier_;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PML_SERVICE_HOST_H_
