#include "p2pdmt/run_report.h"

#include <cstdio>

#include "common/build_info.h"
#include "common/json_check.h"
#include "common/string_util.h"

namespace p2pdt {

namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string Str(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

/// One phase's deterministic ledger delta: its operation counts, all
/// integers. The phase's messages and bytes are in the "cost" section.
std::string CostPhaseJson(const CostCounts& c) {
  std::string out = "{";
  bool first = true;
  for (const auto& [op, value] : c.Scalars()) {
    if (!first) out += ", ";
    first = false;
    out += Str(op) + ": " + std::to_string(value);
  }
  out += "}";
  return out;
}

}  // namespace

std::string RunReport::ToJson(const ExperimentResult& result,
                              const MetricsSnapshot& metrics) {
  std::string out = "{\n";
  out += "  \"run\": {";
  out += "\"algorithm\": " + Str(result.algorithm);
  out += ", \"overlay\": " + Str(result.overlay);
  out += ", \"churn\": " + Str(result.churn);
  out += ", \"num_peers\": " + std::to_string(result.num_peers);
  out += ", \"train_documents\": " + std::to_string(result.train_documents);
  out += ", \"test_documents\": " + std::to_string(result.test_documents);
  out += "},\n";

  out += "  \"quality\": {";
  out += "\"micro_f1\": " + Num(result.metrics.micro_f1);
  out += ", \"macro_f1\": " + Num(result.metrics.macro_f1);
  out += ", \"micro_precision\": " + Num(result.metrics.micro_precision);
  out += ", \"micro_recall\": " + Num(result.metrics.micro_recall);
  out += ", \"hamming_loss\": " + Num(result.metrics.hamming_loss);
  out += ", \"subset_accuracy\": " + Num(result.metrics.subset_accuracy);
  out += ", \"jaccard_accuracy\": " + Num(result.metrics.jaccard_accuracy);
  out += ", \"failed_predictions\": " +
         std::to_string(result.failed_predictions);
  out += ", \"degraded_predictions\": " +
         std::to_string(result.degraded_predictions);
  out += "},\n";

  out += "  \"cost\": {";
  out += "\"train_messages\": " + std::to_string(result.train_messages);
  out += ", \"train_bytes\": " + std::to_string(result.train_bytes);
  out += ", \"predict_messages\": " + std::to_string(result.predict_messages);
  out += ", \"predict_bytes\": " + std::to_string(result.predict_bytes);
  out += ", \"maintenance_messages\": " +
         std::to_string(result.maintenance_messages);
  out += ", \"maintenance_bytes\": " +
         std::to_string(result.maintenance_bytes);
  out += ", \"delivery_rate\": " + Num(result.delivery_rate);
  out += ", \"dropped_messages\": " + std::to_string(result.dropped_messages);
  out += ", \"retransmits\": " + std::to_string(result.retransmits);
  out += ", \"acks_received\": " + std::to_string(result.acks_received);
  out += ", \"give_ups\": " + std::to_string(result.give_ups);
  out += ", \"suspected_peers\": " + std::to_string(result.suspected_peers);
  out += "},\n";

  out += "  \"timing\": {";
  out += "\"train_sim_seconds\": " + Num(result.train_sim_seconds);
  out += ", \"predict_sim_seconds\": " + Num(result.predict_sim_seconds);
  out += ", \"wall_seconds\": " + Num(result.wall_seconds);
  out += "},\n";

  // Build provenance: which binary produced this report. Always present so
  // report consumers (bench_diff, CI triage) never branch on its absence.
  out += "  \"build_info\": " + BuildInfo::Current().ToJson() + ",\n";

  // Deterministic hot-path cost ledger, split by phase. Always present —
  // all zeros when env.observe.cost_ledger was off.
  out += "  \"cost_ledger\": {";
  out += "\"enabled\": ";
  out += result.cost_ledger_enabled ? "true" : "false";
  out += ", \"train\": " + CostPhaseJson(result.train_cost);
  out += ", \"predict\": " + CostPhaseJson(result.predict_cost);
  out += "},\n";

  // Overload health: admission-control sheds, prediction-cache hit ledger,
  // peak serving-queue depth and the CEMPaR batch-size distribution.
  // Always present — all zeros when the overload machinery was off or idle.
  {
    double shed = 0.0, hits = 0.0, misses = 0.0, stale = 0.0;
    double queue_depth = 0.0;
    uint64_t batch_count = 0;
    double batch_sum = 0.0, batch_max = 0.0;
    for (const MetricsSnapshot::Entry& e : metrics.entries) {
      if (e.name == "requests_shed") shed += e.value;
      if (e.name == "cache_hits") hits += e.value;
      if (e.name == "cache_misses") misses += e.value;
      if (e.name == "cache_stale") stale += e.value;
      if (e.name == "serve_queue_depth") {
        queue_depth = queue_depth > e.value ? queue_depth : e.value;
      }
      if (e.name == "batch_size" &&
          e.kind == MetricsSnapshot::Kind::kHistogram) {
        batch_count += e.count;
        batch_sum += e.sum;
        batch_max = batch_max > e.max ? batch_max : e.max;
      }
    }
    const double lookups = hits + misses + stale;
    out += "  \"overload\": {";
    out += "\"requests_shed\": " + Num(shed);
    out += ", \"cache_hits\": " + Num(hits);
    out += ", \"cache_misses\": " + Num(misses);
    out += ", \"cache_stale\": " + Num(stale);
    out += ", \"cache_hit_rate\": " +
           Num(lookups == 0.0 ? 0.0 : hits / lookups);
    out += ", \"serve_queue_depth\": " + Num(queue_depth);
    out += ", \"batches\": " + std::to_string(batch_count);
    out += ", \"mean_batch_size\": " +
           Num(batch_count == 0
                   ? 0.0
                   : batch_sum / static_cast<double>(batch_count));
    out += ", \"max_batch_size\": " + Num(batch_max);
    out += "},\n";
  }

  // Per-phase latency histograms — every `phase_seconds` family member the
  // run recorded, in canonical (deterministic) snapshot order.
  out += "  \"phases\": [";
  bool first = true;
  for (const MetricsSnapshot::Entry& e : metrics.entries) {
    if (e.name != "phase_seconds" ||
        e.kind != MetricsSnapshot::Kind::kHistogram) {
      continue;
    }
    std::string classifier, phase;
    for (const auto& [k, v] : e.labels) {
      if (k == "classifier") classifier = v;
      if (k == "phase") phase = v;
    }
    if (!first) out += ",";
    first = false;
    out += "\n    {";
    out += "\"classifier\": " + Str(classifier);
    out += ", \"phase\": " + Str(phase);
    out += ", \"count\": " + std::to_string(e.count);
    out += ", \"sum\": " + Num(e.sum);
    out += ", \"mean\": " +
           Num(e.count == 0 ? 0.0 : e.sum / static_cast<double>(e.count));
    out += ", \"max\": " + Num(e.max);
    out += ", \"p50\": " + Num(e.p50);
    out += ", \"p95\": " + Num(e.p95);
    out += ", \"p99\": " + Num(e.p99);
    out += "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

Status RunReport::Write(const std::string& path,
                        const ExperimentResult& result,
                        const MetricsSnapshot& metrics) {
  return WriteStringToFile(path, ToJson(result, metrics));
}

}  // namespace p2pdt
