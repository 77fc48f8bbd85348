#ifndef P2PDT_P2PDMT_ENVIRONMENT_H_
#define P2PDT_P2PDMT_ENVIRONMENT_H_

#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/profile.h"
#include "common/status.h"
#include "p2psim/chord.h"
#include "p2psim/churn.h"
#include "p2psim/fault.h"
#include "p2psim/network.h"
#include "p2psim/simulator.h"
#include "p2psim/unstructured.h"

namespace p2pdt {

enum class OverlayType { kChord, kUnstructured };
enum class ChurnType { kNone, kExponential, kPareto };

const char* OverlayTypeToString(OverlayType t);
const char* ChurnTypeToString(ChurnType t);

/// Which observability subsystems an environment installs. Both default
/// off: a disabled subsystem is a null pointer on the network, so every
/// instrumentation site costs one pointer test and the event schedule is
/// bit-identical either way.
struct ObservabilityOptions {
  /// Metrics registry: counters / gauges / latency histograms.
  bool metrics = false;
  /// Causal tracer: per-message spans exported as Chrome trace JSON.
  bool tracing = false;
  /// Hot-path cost ledger: deterministic operation and wire-byte counters.
  /// Enabled process-wide for the experiment's duration (the counters are
  /// thread-local, so concurrent environments share one ledger).
  bool cost_ledger = false;
  /// Wall-clock span profiler with collapsed-stack flamegraph export.
  bool profiling = false;
};

/// One-stop configuration of a simulated P2P environment — the "Configure
/// physical network / Generate P2P network / Simulate node failures" block
/// of P2PDMT's architecture (Fig. 2).
struct EnvironmentOptions {
  std::size_t num_peers = 64;
  PhysicalNetworkOptions physical;
  OverlayType overlay = OverlayType::kChord;
  ChurnType churn = ChurnType::kNone;
  /// Mean online session length (seconds) for exponential/Pareto churn.
  double churn_mean_online_sec = 600.0;
  /// Mean offline gap (seconds). Pareto churn keeps ParetoChurn's default
  /// shape.
  double churn_mean_offline_sec = 120.0;
  /// Structured faults (burst loss, partitions, latency spikes, scripted
  /// crash/recover) layered on top of churn; armed by StartDynamics when
  /// non-empty. Scripted transitions notify the overlay exactly like churn
  /// transitions do.
  FaultPlanSpec fault;
  /// Metrics / tracing subsystems (both off by default).
  ObservabilityOptions observe;
  uint64_t seed = 99;
};

/// Owns an assembled simulation: simulator + underlay + overlay + churn,
/// with the churn driver wired to the overlay's transition handling.
class Environment {
 public:
  /// Builds the environment and joins all peers to the overlay.
  static Result<std::unique_ptr<Environment>> Create(
      const EnvironmentOptions& options);

  Simulator& sim() { return *sim_; }
  PhysicalNetwork& net() { return *net_; }
  Overlay& overlay() { return *overlay_; }
  /// Non-null only when the overlay is Chord.
  ChordOverlay* chord() { return chord_; }
  UnstructuredOverlay* unstructured() { return unstructured_; }
  ChurnDriver& churn() { return *churn_; }
  /// Non-null only when options.fault was non-empty.
  FaultInjector* fault_injector() { return fault_.get(); }
  /// Non-null only when options.observe.metrics was set.
  MetricsRegistry* metrics() { return metrics_.get(); }
  /// Non-null only when options.observe.tracing was set.
  Tracer* tracer() { return tracer_.get(); }
  /// Non-null only when options.observe.profiling was set. Installed as the
  /// process-wide profiler while this environment is alive.
  PhaseProfiler* profiler() { return profiler_.get(); }
  const EnvironmentOptions& options() const { return options_; }

  /// Starts churn transitions and (for Chord) periodic stabilization.
  void StartDynamics();

  /// Runs the simulator until `flag` becomes true or `max_sim_seconds`
  /// elapse; returns the simulated seconds consumed. This is the standard
  /// way to drive an async protocol to quiescence under recurring churn /
  /// maintenance events (plain RunAll would never return). It steps whole
  /// 1 s slices, so the return value is the end of the slice in which the
  /// flag flipped; callers that report when it flipped stamp Now() in the
  /// callback that sets it.
  double RunUntilFlag(const bool& flag, double max_sim_seconds);

  ~Environment();

 private:
  Environment() = default;

  EnvironmentOptions options_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<PhysicalNetwork> net_;
  std::unique_ptr<Overlay> overlay_;
  ChordOverlay* chord_ = nullptr;
  UnstructuredOverlay* unstructured_ = nullptr;
  std::unique_ptr<ChurnDriver> churn_;
  std::unique_ptr<FaultInjector> fault_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<PhaseProfiler> profiler_;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_ENVIRONMENT_H_
