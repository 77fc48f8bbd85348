// BYZ1 — poisoning resistance: sweep malicious-peer fraction × adversary
// behavior for CEMPaR and PACE, with the sanitation + reputation defense
// stack off (undefended: what the original protocols do) and on.
//
// Expected shape: undefended macro-F1 collapses as the malicious fraction
// grows (label-flipped and garbage models enter every cascade / ensemble);
// defended macro-F1 stays within a few points of the clean baseline — at
// 30 % label-flip the acceptance bar is a <= 5-point drop — because
// sanitation rejects malformed uploads at ingestion and cross-validation
// quarantines anti-correlated contributors before they vote.
//
// `--smoke` runs a small clean + 30 %-label-flip grid (both algorithms,
// both arms) and writes the same CSV schema for CI validation
// (tools/check_csv.py).

#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "p2pdmt/byzantine.h"

using namespace p2pdt_bench;

namespace {

/// Label-flip is the headline attack, swept across fractions (the paper of
/// record for poisoning curves); the other behaviors run at this fraction.
constexpr double kOtherFraction = 0.3;

void ApplyDefenseTuning(ExperimentOptions& opt) {
  // Three regions per tag give every prediction three regional votes — the
  // minimum the requester-side median trim needs a majority over.
  opt.cempar.regions_per_tag = 3;
  // IID class distribution: the poisoning sweep isolates the adversary
  // effect from data heterogeneity. It also matters for the defense itself:
  // cross-validation can only score a contributor on tags whose holdout has
  // both classes, so under heavily non-IID splits much of the trust matrix
  // is unobservable (documented in DESIGN.md §10).
  opt.distribution.cls = ClassDistribution::kIid;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::unique_ptr<VectorizedCorpus> smoke_corpus;
  ExperimentOptions base;
  std::vector<double> flip_fractions = {0.1, 0.2, 0.3, 0.4};
  std::vector<AdversaryBehavior> other_behaviors = {
      AdversaryBehavior::kGarbageModel, AdversaryBehavior::kDimensionMismatch,
      AdversaryBehavior::kAccuracyInflate, AdversaryBehavior::kVoteSpam};
  if (smoke) {
    std::printf("=== BYZ1 smoke: clean + 30%% label-flip for CI ===\n");
    CorpusOptions copt;
    copt.num_users = 10;
    copt.min_docs_per_user = 30;
    copt.max_docs_per_user = 40;
    copt.num_tags = 5;
    copt.vocabulary_size = 1000;
    copt.seed = 4242;
    Result<VectorizedCorpus> generated = MakeVectorizedCorpus(copt);
    if (!generated.ok()) {
      std::fprintf(stderr, "corpus: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    smoke_corpus =
        std::make_unique<VectorizedCorpus>(std::move(generated).value());
    base = MacroDefaults(AlgorithmType::kPace, /*num_peers=*/10);
    base.max_test_documents = 40;
    flip_fractions = {0.3};
    other_behaviors = {AdversaryBehavior::kGarbageModel};
  } else {
    std::printf("=== BYZ1: adversary fraction x behavior x defense ===\n\n");
    base = MacroDefaults(AlgorithmType::kPace, /*num_peers=*/64);
    base.max_test_documents = 200;
  }
  const VectorizedCorpus& corpus =
      smoke ? *smoke_corpus
            : SharedCorpus(/*num_users=*/128, /*num_tags=*/12);
  ApplyDefenseTuning(base);

  // Per arm: the clean baseline every degradation is measured against,
  // then label-flip at each fraction, then the other behaviors.
  std::vector<std::pair<AdversaryBehavior, double>> attacks = {
      {AdversaryBehavior::kHonest, 0.0}};
  for (double f : flip_fractions) {
    attacks.push_back({AdversaryBehavior::kLabelFlip, f});
  }
  for (AdversaryBehavior b : other_behaviors) {
    attacks.push_back({b, kOtherFraction});
  }

  CsvWriter csv;
  for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
    for (bool defended : {true, false}) {
      for (const auto& [behavior, fraction] : attacks) {
        ExperimentOptions opt = base;
        opt.algorithm = algo;
        opt.env.fault = MakeAdversaryPlan(opt.env.num_peers, behavior,
                                          fraction, opt.seed);
        opt.cempar.sanitize.enabled = defended;
        opt.pace.sanitize.enabled = defended;
        opt.cempar.reputation.enabled = defended;
        opt.pace.reputation.enabled = defended;
        const std::string label = behavior == AdversaryBehavior::kHonest
                                      ? "none"
                                      : AdversaryBehaviorToString(behavior);
        Result<ExperimentResult> r = RunExperiment(corpus, opt);
        if (!r.ok()) {
          P2PDT_LOG(Warning)
              << AlgorithmTypeToString(algo) << " adversary=" << label
              << " fraction=" << fraction << " defended=" << defended
              << " failed: " << r.status().ToString();
          continue;
        }
        CsvWriter::Row row;
        row.Add("algorithm", r->algorithm)
            .Add("adversary", label)
            .Add("malicious_fraction", fraction)
            .Add("malicious_peers", opt.env.fault.adversaries.size())
            .Flag("defended", defended)
            .Add("micro_f1", r->metrics.micro_f1)
            .Add("macro_f1", r->metrics.macro_f1)
            .Add("prediction_success_rate", PredictionSuccessRate(*r))
            .Add("attempted", r->test_documents)
            .Add("models_rejected", r->models_rejected)
            .Add("votes_discarded", r->votes_discarded)
            .Add("quarantined_pairs", r->quarantined_pairs)
            .Add("trust_observations", r->trust_observations)
            .Add("train_bytes", r->train_bytes)
            .Add("train_sim_seconds", r->train_sim_seconds);
        if (!EmitRow(csv, row)) return 1;
      }
    }
  }
  if (smoke && csv.num_rows() == 0) {
    std::fprintf(stderr, "smoke sweep produced no rows\n");
    return 1;
  }
  WriteResults(csv, "byzantine.csv");
  return 0;
}
