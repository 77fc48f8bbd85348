#ifndef P2PDT_BENCH_BENCH_UTIL_H_
#define P2PDT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "common/build_info.h"
#include "common/csv.h"
#include "common/json_check.h"
#include "common/string_util.h"
#include "p2pdmt/experiment.h"

namespace p2pdt_bench {

using namespace p2pdt;  // NOLINT — bench-local convenience

/// Corpus used by the macro experiments: Delicious-like, 512 users with
/// 50–200 docs each is too slow to rebuild per bench point, so benches
/// share one sized-down instance per binary (generated once, reused for
/// every sweep point — exactly how the paper reuses its crawl).
inline const VectorizedCorpus& SharedCorpus(std::size_t num_users = 128,
                                            std::size_t num_tags = 12) {
  static const VectorizedCorpus corpus = [num_users, num_tags] {
    CorpusOptions opt;
    opt.num_users = num_users;
    opt.min_docs_per_user = 50;
    opt.max_docs_per_user = 80;
    opt.num_tags = num_tags;
    opt.vocabulary_size = 3000;
    opt.seed = 20100913;  // VLDB 2010 opening day
    Result<VectorizedCorpus> r = MakeVectorizedCorpus(opt);
    if (!r.ok()) {
      std::fprintf(stderr, "corpus generation failed: %s\n",
                   r.status().ToString().c_str());
      std::abort();
    }
    return std::move(r).value();
  }();
  return corpus;
}

/// Writes a CSV table under bench_results/, creating the directory.
inline void WriteResults(const CsvWriter& csv, const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path("bench_results/" + name).parent_path(), ec);
  std::string path = "bench_results/" + name;
  Status s = csv.WriteFile(path);
  if (s.ok()) {
    std::printf("\n[results written to %s]\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s: %s\n", path.c_str(),
                 s.ToString().c_str());
  }
}

/// Appends one sweep row to `csv` and prints it as its CSV line (the header
/// first, when this row fixed it), so a sweep's stdout is its table as it
/// grows. Returns false, after saying why, when the row's columns differ
/// from the table's.
inline bool EmitRow(CsvWriter& csv, const CsvWriter::Row& row) {
  const bool first = csv.num_rows() == 0;
  Status s = csv.AddRow(row);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return false;
  }
  if (first) std::fputs(CsvWriter::FormatLine(csv.header()).c_str(), stdout);
  std::fputs(CsvWriter::FormatLine(row.values()).c_str(), stdout);
  std::fflush(stdout);
  return true;
}

/// `num / den`, or 0 when nothing was counted.
inline double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Fraction of an experiment's prediction requests answered (including
/// degraded answers); 1 when none was attempted.
inline double PredictionSuccessRate(const ExperimentResult& r) {
  return r.test_documents == 0
             ? 1.0
             : 1.0 - static_cast<double>(r.failed_predictions) /
                         static_cast<double>(r.test_documents);
}

/// Machine-readable bench emitter for the regression gate.
///
/// Each bench point carries two metric families: `deterministic` values
/// (ledger op counts, wire bytes, message counts — bit-identical across
/// runs at a fixed seed and toolchain) which tools/bench_diff.py compares
/// against the committed baseline at 0% tolerance, and `advisory` values
/// (wall-clock seconds, throughput) which are reported but never gate.
class BenchEmitter {
 public:
  explicit BenchEmitter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void Deterministic(const std::string& point, const std::string& metric,
                     uint64_t value) {
    points_[point].deterministic[metric] = value;
  }
  void Advisory(const std::string& point, const std::string& metric,
                double value) {
    points_[point].advisory[metric] = value;
  }

  std::string ToJson() const {
    std::string out = "{\n";
    out += "  \"bench\": \"" + JsonEscape(bench_name_) + "\",\n";
    out += "  \"build_info\": " + BuildInfo::Current().ToJson() + ",\n";
    out += "  \"points\": {";
    bool first_point = true;
    for (const auto& [point, metrics] : points_) {
      if (!first_point) out += ",";
      first_point = false;
      out += "\n    \"" + JsonEscape(point) + "\": {";
      out += "\n      \"deterministic\": {";
      bool first = true;
      for (const auto& [metric, value] : metrics.deterministic) {
        if (!first) out += ", ";
        first = false;
        out += "\"" + JsonEscape(metric) +
               "\": " + std::to_string(value);
      }
      out += "},\n      \"advisory\": {";
      first = true;
      for (const auto& [metric, value] : metrics.advisory) {
        if (!first) out += ", ";
        first = false;
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", value);
        out += "\"" + JsonEscape(metric) + "\": " + buf;
      }
      out += "}\n    }";
    }
    out += first_point ? "}\n}\n" : "\n  }\n}\n";
    return out;
  }

  /// Writes bench_results/<name>, creating directories.
  void Write(const std::string& name) const {
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path("bench_results/" + name).parent_path(), ec);
    std::string path = "bench_results/" + name;
    Status s = WriteStringToFile(path, ToJson());
    if (s.ok()) {
      std::printf("[bench json written to %s]\n", path.c_str());
    } else {
      std::fprintf(stderr, "could not write %s: %s\n", path.c_str(),
                   s.ToString().c_str());
    }
  }

 private:
  struct PointMetrics {
    std::map<std::string, uint64_t> deterministic;
    std::map<std::string, double> advisory;
  };
  std::string bench_name_;
  std::map<std::string, PointMetrics> points_;
};

/// Records one experiment's ledger deltas into a bench point's
/// deterministic metrics (plus sim-time, which is deterministic too) and
/// its wall clock into the advisory family.
inline void RecordExperiment(BenchEmitter& emitter, const std::string& point,
                             const ExperimentResult& result) {
  for (const auto& [op, value] : result.train_cost.Scalars()) {
    emitter.Deterministic(point, std::string("train_") + op, value);
  }
  for (const auto& [op, value] : result.predict_cost.Scalars()) {
    emitter.Deterministic(point, std::string("predict_") + op, value);
  }
  emitter.Deterministic(point, "train_bytes", result.train_bytes);
  emitter.Deterministic(point, "predict_bytes", result.predict_bytes);
  emitter.Deterministic(point, "train_messages", result.train_messages);
  emitter.Deterministic(point, "predict_messages", result.predict_messages);
  emitter.Deterministic(point, "failed_predictions",
                        result.failed_predictions);
  emitter.Advisory(point, "micro_f1", result.metrics.micro_f1);
  emitter.Advisory(point, "train_sim_seconds", result.train_sim_seconds);
  emitter.Advisory(point, "predict_sim_seconds",
                   result.predict_sim_seconds);
  emitter.Advisory(point, "wall_seconds", result.wall_seconds);
}

/// Common experiment defaults for the macro benches.
inline ExperimentOptions MacroDefaults(AlgorithmType algorithm,
                                       std::size_t num_peers) {
  ExperimentOptions opt;
  opt.algorithm = algorithm;
  opt.env.num_peers = num_peers;
  opt.distribution.cls = ClassDistribution::kByUser;
  opt.max_test_documents = 300;
  return opt;
}

}  // namespace p2pdt_bench

#endif  // P2PDT_BENCH_BENCH_UTIL_H_
