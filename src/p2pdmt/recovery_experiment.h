#ifndef P2PDT_P2PDMT_RECOVERY_EXPERIMENT_H_
#define P2PDT_P2PDMT_RECOVERY_EXPERIMENT_H_

#include <cstddef>
#include <string>

#include "p2pdmt/experiment.h"

namespace p2pdt {

/// Outcome of the crash-restore equivalence experiment.
struct CrashRestoreReport {
  std::string algorithm;
  std::size_t crashed_peers = 0;
  std::size_t restored_peers = 0;
  uint64_t checkpoint_bytes = 0;
  std::size_t predictions = 0;
  /// Predictions whose tag sets differ between the uninterrupted run and
  /// the crash→checkpoint-restore run.
  std::size_t mismatched_tags = 0;
  /// Predictions whose raw score vectors differ *bitwise* (exact double
  /// comparison, no tolerance).
  std::size_t mismatched_scores = 0;
  /// Restored peers whose re-snapshot differs from the pre-crash blob —
  /// a byte-exact round-trip check on Snapshot/Restore themselves.
  std::size_t resnapshot_mismatches = 0;

  /// The durability guarantee under test: restoring from checkpoints is
  /// indistinguishable — bit for bit — from never having crashed.
  bool bit_identical() const {
    return mismatched_tags == 0 && mismatched_scores == 0 &&
           resnapshot_mismatches == 0 && predictions > 0 &&
           restored_peers == crashed_peers;
  }
};

/// Runs the same experiment twice with identical seeds — once uninterrupted,
/// once crashing `num_crashed_peers` peers after training (state evicted),
/// checkpoint-restoring them, and re-running the identical prediction
/// workload — then compares every prediction bitwise.
///
/// `base.env.churn` is forced to none: this experiment isolates the
/// restore path; bench_churn's warm-vs-cold sweep covers random failure
/// timing.
Result<CrashRestoreReport> RunCrashRestoreExperiment(
    const VectorizedCorpus& corpus, const ExperimentOptions& base,
    std::size_t num_crashed_peers);

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_RECOVERY_EXPERIMENT_H_
