#ifndef P2PDT_P2PDMT_RECOVERY_H_
#define P2PDT_P2PDMT_RECOVERY_H_

#include <string>

#include "common/checkpoint.h"
#include "common/status.h"
#include "p2pml/p2p_classifier.h"
#include "p2pml/peer_runtime.h"
#include "p2psim/churn.h"
#include "p2psim/network.h"
#include "p2psim/simulator.h"

namespace p2pdt {

/// Simulated seconds to load + validate a peer's checkpoints on a warm
/// rejoin (disk read, CRC check, deserialization).
inline constexpr double kWarmRestoreLatencySec = 0.25;
/// Simulated seconds per training example refit on a cold rejoin; the
/// dominant term of cold-start latency.
inline constexpr double kColdRetrainLatencyPerExampleSec = 0.02;

/// Knobs of the durable-peer-state layer an experiment can enable.
struct RecoveryOptions {
  /// Master switch: wire peer-state durability through churn transitions.
  bool enabled = false;
  /// Restore from checkpoints on rejoin. false = every rejoin is cold —
  /// the comparison baseline the churn sweep measures warm rejoin against.
  bool warm_rejoin = true;
  /// Directory for checkpoint files. Empty = the experiment creates (and
  /// removes) a unique scratch directory under the system temp dir.
  std::string checkpoint_dir;
  /// Refresh the peer's checkpoint after a cold retrain, so its *next*
  /// rejoin can be warm. Only meaningful with warm_rejoin.
  bool recheckpoint_after_cold_restart = true;
};

/// What the recovery layer did over a run.
struct RecoveryStats {
  uint64_t snapshots_written = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t warm_rejoins = 0;
  uint64_t cold_rejoins = 0;
  /// Checkpoints rejected by the integrity check (torn/corrupted file);
  /// each one degraded to a cold restart instead of a crash or a silently
  /// wrong model.
  uint64_t corrupt_checkpoints = 0;
  /// Training examples refit across all cold restarts — the retrain work
  /// warm rejoin avoids.
  uint64_t retrain_examples = 0;
  /// Simulated seconds peers spent unavailable-while-recovering, summed
  /// and worst-case.
  double total_rejoin_latency_sec = 0.0;
  double max_rejoin_latency_sec = 0.0;
  uint64_t resync_rounds = 0;

  double mean_rejoin_latency_sec() const {
    uint64_t n = warm_rejoins + cold_rejoins;
    return n == 0 ? 0.0 : total_rejoin_latency_sec / static_cast<double>(n);
  }
};

/// Wires a P2P classifier's durability hooks (Snapshot/Restore/EvictPeer/
/// ColdRestart/ResyncPeer) through churn transitions:
///
///  - on failure, the peer's volatile state is evicted — a crash destroys
///    RAM, never the checkpoint on disk;
///  - on rejoin, the coordinator warm-restores from the peer's checkpoint
///    when one exists and validates (CRC + version), otherwise cold-starts
///    by retraining from the peer's retained data; either way one
///    anti-entropy round follows so regional/replicated state catches up;
///  - every rejoin is classified warm/cold on the ChurnDriver's counters
///    and charged a simulated recovery latency.
///
/// Attach() is called after training quiesces (there is nothing worth
/// checkpointing before), typically right after CheckpointAll().
class RecoveryCoordinator {
 public:
  RecoveryCoordinator(Simulator& sim, PhysicalNetwork& net,
                      ChurnDriver& churn, StatefulP2PClassifier& classifier,
                      CheckpointManager& checkpoints,
                      RecoveryOptions options);

  /// Registers the churn transition listener. Idempotent.
  void Attach();

  /// Snapshots every online peer to the checkpoint store (called once
  /// training completes — the moment peers first have state worth keeping).
  Status CheckpointAll();

  /// Snapshots one peer (also used to refresh after a cold restart).
  Status CheckpointPeer(NodeId peer);

  const RecoveryStats& stats() const { return stats_; }

  /// Checkpoint key for a peer — stable across runs so a successor process
  /// can warm-start from a predecessor's directory.
  static std::string KeyFor(NodeId peer);

 private:
  void OnTransition(NodeId node, bool online);
  void HandleRejoin(NodeId node);

  Simulator& sim_;
  PhysicalNetwork& net_;
  ChurnDriver& churn_;
  StatefulP2PClassifier& classifier_;
  CheckpointManager& checkpoints_;
  RecoveryOptions options_;
  RecoveryStats stats_;
  PhaseHistograms phases_;
  bool attached_ = false;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_RECOVERY_H_
