#ifndef P2PDT_P2PDMT_OVERLOAD_H_
#define P2PDT_P2PDMT_OVERLOAD_H_

#include "corpus/vectorize.h"
#include "p2pdmt/experiment.h"
#include "p2pdmt/loadgen.h"

namespace p2pdt {

/// One run of the overload harness: train the protocol as usual, then (when
/// the load generator is armed) replay tagging sessions against it and
/// measure goodput-within-SLO, shed rate and cache effectiveness. With the
/// generator disarmed the harness instead runs a short sequential
/// prediction pass and fingerprints only the answers (tags + scores) — the
/// witness that idle overload machinery changes no prediction.
struct OverloadExperimentOptions {
  AlgorithmType algorithm = AlgorithmType::kPace;
  EnvironmentOptions env;
  DataDistributionOptions distribution;
  CemparOptions cempar;
  PaceOptions pace;
  LoadGenOptions loadgen;
  /// Cap on the request catalog drawn from the test split (0 = all).
  std::size_t max_docs = 0;
  uint64_t seed = 777;
};

/// Load-generator outcome plus the server-side ledgers for the same run.
struct OverloadRunStats {
  LoadGenResult load;
  /// Requests shed by admission control (serve-queue counters, summed over
  /// nodes; equals the requests_shed metric family total).
  uint64_t requests_shed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_stale = 0;
  uint64_t give_ups = 0;
  /// NetworkStats drops recorded with DropReason::kOverloadShed.
  uint64_t overload_drops = 0;
  double train_sim_seconds = 0.0;
};

Result<OverloadRunStats> RunOverloadExperiment(
    const VectorizedCorpus& corpus, const OverloadExperimentOptions& options);

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_OVERLOAD_H_
