// ROBUST1 — delivery guarantees under structured faults: sweep baseline
// loss rate × fault plan for CEMPaR and PACE, with the reliable transport
// off (fire-and-forget baseline, what the original papers measured) and on
// (ACK / timeout / backoff / bounded retries + repair).
//
// Expected shape: without retries, macro-F1 and prediction success fall
// roughly linearly with loss; with retries, delivery converges (PACE model
// coverage → 1.0, CEMPaR success ≈ 1.0) at the cost of the retransmission
// overhead column. Each fault plan is scaled to the run it disturbs: its
// horizon is the simulated length (train + predict) of the plan=none run
// at the same (algorithm, loss, reliable) point, so every window opens
// while that run is still going. Writes bench_results/fault.csv, one row
// per point; tools/check_csv.py validates it.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "p2psim/fault.h"

using namespace p2pdt_bench;

namespace {

/// A fault plan with a human-readable label, so sweep output stays
/// interpretable ("burst", "partition", ...).
struct NamedFaultPlan {
  std::string label;
  FaultPlanSpec plan;
};

/// The canonical fault plans, scaled to a protocol run that trains and
/// predicts within the first `horizon` simulated seconds:
///  - "none":       no injected faults (baseline loss only)
///  - "burst":      50 % loss for the middle third of the horizon
///  - "partition":  the first half of the peers is cut off from the second
///                  for the middle third
///  - "spike":      +2 s latency for the middle third (stress timers, not
///                  delivery)
///  - "crash":      the first `num_peers / 8` peers crash at horizon/4 and
///                  recover at 3·horizon/4
std::vector<NamedFaultPlan> CanonicalFaultPlans(std::size_t num_peers,
                                                double horizon) {
  std::vector<NamedFaultPlan> plans;
  plans.push_back({"none", {}});

  const double third = horizon / 3.0;
  {
    NamedFaultPlan p{"burst", {}};
    p.plan.burst_loss.push_back({third, 2.0 * third, 0.5});
    plans.push_back(std::move(p));
  }
  {
    NamedFaultPlan p{"partition", {}};
    FaultPlanSpec::Partition part;
    part.start = third;
    part.end = 2.0 * third;
    for (NodeId n = 0; n < num_peers; ++n) {
      (n < num_peers / 2 ? part.group_a : part.group_b).push_back(n);
    }
    p.plan.partitions.push_back(std::move(part));
    plans.push_back(std::move(p));
  }
  {
    NamedFaultPlan p{"spike", {}};
    p.plan.latency_spikes.push_back({third, 2.0 * third, 2.0});
    plans.push_back(std::move(p));
  }
  {
    NamedFaultPlan p{"crash", {}};
    std::size_t victims = num_peers < 8 ? 1 : num_peers / 8;
    for (NodeId n = 0; n < victims; ++n) {
      p.plan.crashes.push_back({horizon / 4.0, n});
      p.plan.recoveries.push_back({3.0 * horizon / 4.0, n});
    }
    plans.push_back(std::move(p));
  }
  return plans;
}

}  // namespace

int main() {
  std::printf("=== ROBUST1: loss x fault plan x reliability ===\n\n");
  const VectorizedCorpus& corpus = SharedCorpus(/*num_users=*/128,
                                                /*num_tags=*/12);
  ExperimentOptions base = MacroDefaults(AlgorithmType::kPace, 64);
  base.max_test_documents = 200;

  CsvWriter csv;
  for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
    for (double loss : {0.0, 0.1, 0.2}) {
      // Per reliable flag, the plans are rescaled to the plan=none run's
      // simulated length once it is measured; "none" is the first plan.
      std::vector<NamedFaultPlan> plans[2];
      plans[0] = plans[1] = CanonicalFaultPlans(base.env.num_peers, 0.0);
      for (std::size_t p = 0; p < plans[0].size(); ++p) {
        // Fire-and-forget and reliable side by side, so the delta the
        // retries buy is in the same table.
        for (bool reliable : {false, true}) {
          const NamedFaultPlan plan = plans[reliable][p];
          ExperimentOptions opt = base;
          opt.algorithm = algo;
          opt.env.physical.loss_rate = loss;
          opt.env.fault = plan.plan;
          opt.cempar.reliable_transport = reliable;
          opt.pace.reliable_dissemination = reliable;
          Result<ExperimentResult> r = RunExperiment(corpus, opt);
          if (!r.ok()) {
            P2PDT_LOG(Warning)
                << AlgorithmTypeToString(algo) << " loss=" << loss
                << " plan=" << plan.label << " reliable=" << reliable
                << " failed: " << r.status().ToString();
            continue;
          }
          if (plan.label == "none") {
            plans[reliable] = CanonicalFaultPlans(
                base.env.num_peers,
                r->train_sim_seconds + r->predict_sim_seconds);
          }
          CsvWriter::Row row;
          row.Add("algorithm", r->algorithm)
              .Add("plan", plan.label)
              .Add("loss_rate", loss)
              .Flag("reliable", reliable)
              .Add("micro_f1", r->metrics.micro_f1)
              .Add("macro_f1", r->metrics.macro_f1)
              .Add("prediction_success_rate", PredictionSuccessRate(*r))
              .Add("failed", r->failed_predictions)
              .Add("degraded", r->degraded_predictions)
              .Add("attempted", r->test_documents)
              .Add("delivery_rate", r->delivery_rate)
              // Retransmissions per non-maintenance protocol message: the
              // price the transport pays for its delivery guarantee.
              .Add("retry_overhead",
                   Ratio(r->retransmits,
                         r->train_messages + r->predict_messages))
              .Add("retransmits", r->retransmits)
              .Add("give_ups", r->give_ups)
              .Add("injected_drops", r->injected_drops)
              // PACE dissemination convergence (-1 for other algorithms).
              .Add("model_coverage", r->model_coverage);
          if (!EmitRow(csv, row)) return 1;
        }
      }
    }
  }
  WriteResults(csv, "fault.csv");
  return 0;
}
