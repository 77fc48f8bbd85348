#include "p2pdmt/environment.h"

#include <algorithm>

namespace p2pdt {

const char* OverlayTypeToString(OverlayType t) {
  switch (t) {
    case OverlayType::kChord:
      return "chord";
    case OverlayType::kUnstructured:
      return "unstructured";
  }
  return "unknown";
}

const char* ChurnTypeToString(ChurnType t) {
  switch (t) {
    case ChurnType::kNone:
      return "none";
    case ChurnType::kExponential:
      return "exponential";
    case ChurnType::kPareto:
      return "pareto";
  }
  return "unknown";
}

Result<std::unique_ptr<Environment>> Environment::Create(
    const EnvironmentOptions& options) {
  if (options.num_peers == 0) {
    return Status::InvalidArgument("environment needs at least one peer");
  }
  auto env = std::unique_ptr<Environment>(new Environment());
  env->options_ = options;
  env->sim_ = std::make_unique<Simulator>();

  PhysicalNetworkOptions phys = options.physical;
  phys.seed ^= options.seed;
  env->net_ = std::make_unique<PhysicalNetwork>(*env->sim_, phys);
  env->net_->AddNodes(options.num_peers);

  // Observability attaches before the overlay joins so bootstrap traffic is
  // measured too. Disabled subsystems stay null — zero cost downstream.
  if (options.observe.metrics) {
    env->metrics_ = std::make_unique<MetricsRegistry>();
    env->net_->SetMetrics(env->metrics_.get());
  }
  if (options.observe.tracing) {
    env->tracer_ = std::make_unique<Tracer>();
    env->net_->SetTracer(env->tracer_.get());
  }
  if (options.observe.profiling) {
    env->profiler_ = std::make_unique<PhaseProfiler>();
    PhaseProfiler::Install(env->profiler_.get());
  }

  switch (options.overlay) {
    case OverlayType::kChord: {
      ChordOptions chord;
      chord.seed ^= options.seed;
      auto overlay =
          std::make_unique<ChordOverlay>(*env->sim_, *env->net_, chord);
      env->chord_ = overlay.get();
      env->overlay_ = std::move(overlay);
      break;
    }
    case OverlayType::kUnstructured: {
      UnstructuredOptions unstructured;
      unstructured.seed ^= options.seed;
      auto overlay = std::make_unique<UnstructuredOverlay>(
          *env->sim_, *env->net_, unstructured);
      env->unstructured_ = overlay.get();
      env->overlay_ = std::move(overlay);
      break;
    }
  }
  for (NodeId n = 0; n < options.num_peers; ++n) env->overlay_->AddNode(n);
  // Converge routing state: node k's join only builds k's own tables.
  if (env->chord_ != nullptr) env->chord_->Bootstrap();

  std::shared_ptr<ChurnModel> model;
  switch (options.churn) {
    case ChurnType::kNone:
      model = std::make_shared<NoChurn>();
      break;
    case ChurnType::kExponential:
      model = std::make_shared<ExponentialChurn>(
          options.churn_mean_online_sec, options.churn_mean_offline_sec);
      break;
    case ChurnType::kPareto:
      model = std::make_shared<ParetoChurn>(options.churn_mean_online_sec,
                                            options.churn_mean_offline_sec);
      break;
  }
  env->churn_ = std::make_unique<ChurnDriver>(*env->sim_, *env->net_, model,
                                              options.seed ^ 0xC0FFEE);
  Overlay* overlay = env->overlay_.get();
  env->churn_->AddListener([overlay](NodeId node, bool online) {
    overlay->OnTransition(node, online);
  });

  if (!options.fault.empty()) {
    env->fault_ = std::make_unique<FaultInjector>(
        *env->sim_, *env->net_, options.fault.seed ^ options.seed);
    env->fault_->AddPlan(options.fault);
    env->fault_->AddTransitionListener([overlay](NodeId node, bool online) {
      overlay->OnTransition(node, online);
    });
  }
  return env;
}

Environment::~Environment() {
  // Only uninstall our own profiler: a newer environment may have replaced
  // the process-wide registration already.
  if (profiler_ != nullptr && PhaseProfiler::Current() == profiler_.get()) {
    PhaseProfiler::Install(nullptr);
  }
}

void Environment::StartDynamics() {
  if (options_.churn != ChurnType::kNone) churn_->Start();
  if (chord_ != nullptr) chord_->StartStabilization();
  if (fault_ != nullptr && !fault_->armed()) fault_->Arm();
}

double Environment::RunUntilFlag(const bool& flag, double max_sim_seconds) {
  const SimTime start = sim_->Now();
  const SimTime deadline = start + max_sim_seconds;
  // Advance in slices so recurring churn/stabilization events cannot stall
  // completion detection.
  while (!flag && sim_->Now() < deadline) {
    if (sim_->pending_events() == 0) break;
    SimTime slice_end = std::min(deadline, sim_->Now() + 1.0);
    sim_->RunUntil(slice_end);
  }
  return sim_->Now() - start;
}

}  // namespace p2pdt
