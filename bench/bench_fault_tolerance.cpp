// CLAIM6 — "peers are autonomous and hence there is no single point of
// failure in the system" (paper Sec. 1.1). Fault-injection protocol:
//
//   1. Train CEMPaR and the centralized baseline on the same data.
//   2. Kill the coordinator (centralized) / every super-peer (CEMPaR).
//   3. Measure the failure rate of predictions in the broken state.
//   4. Let the DHT stabilize and run CEMPaR's repair round; re-measure.
//
// Expected shape: centralized goes to 100 % failures and stays there;
// CEMPaR degrades, then *recovers to full accuracy* after repair.

#include <cstdio>
#include <set>

#include "bench/bench_util.h"

using namespace p2pdt_bench;

namespace {

struct EvalResult {
  double micro_f1 = 0.0;
  std::size_t failed = 0;
  std::size_t attempted = 0;
};

EvalResult Evaluate(Environment& env, P2PClassifier& algo,
                    const MultiLabelDataset& test, TagId num_tags,
                    const std::set<NodeId>& excluded_requesters,
                    uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<TagId>> truth, predicted;
  std::size_t failed = 0;
  std::size_t n = std::min<std::size_t>(test.size(), 150);
  std::size_t outstanding = n;
  bool done = (n == 0);
  truth.resize(n);
  predicted.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    truth[i] = test[i].tags;
    NodeId requester;
    int guard = 0;
    do {
      requester = rng.NextU64(env.net().num_nodes());
    } while ((excluded_requesters.count(requester) ||
              !env.net().IsOnline(requester)) &&
             ++guard < 256);
    algo.Predict(requester, test[i].x, [&, i](P2PPrediction p) {
      if (!p.success) ++failed;
      predicted[i] = std::move(p.tags);
      if (--outstanding == 0) done = true;
    });
  }
  env.RunUntilFlag(done, 3600);
  EvalResult out;
  out.micro_f1 = EvaluateMultiLabel(truth, predicted, num_tags).micro_f1;
  out.failed = failed;
  out.attempted = n;
  return out;
}

}  // namespace

int main() {
  std::printf("=== CLAIM6: fault tolerance — no single point of failure "
              "===\n\n");
  const VectorizedCorpus& corpus = SharedCorpus(64, 12);
  CorpusSplit split = SplitCorpus(corpus, kTrainFraction, 11);
  CsvWriter csv({"system", "phase", "micro_f1", "failed", "attempted"});

  // ---- Centralized: kill the coordinator. -------------------------------
  {
    ExperimentOptions opt = MacroDefaults(AlgorithmType::kCentralized, 64);
    auto env = std::move(Environment::Create(opt.env)).value();
    auto algo = std::move(MakeClassifier(*env, opt)).value();
    auto peers = std::move(DistributeData(split.train, 64, opt.distribution,
                                          &split.train_user))
                     .value();
    algo->Setup(std::move(peers), corpus.dataset.num_tags()).ToString();
    bool trained = false;
    algo->Train([&](Status) { trained = true; });
    env->RunUntilFlag(trained, 3600);

    EvalResult before = Evaluate(*env, *algo, split.test,
                                 corpus.dataset.num_tags(), {0}, 1);
    env->net().SetOnline(0, false);  // the coordinator dies
    EvalResult after = Evaluate(*env, *algo, split.test,
                                corpus.dataset.num_tags(), {0}, 2);
    std::printf("centralized  before-failure: microF1=%.4f failed=%zu/%zu\n",
                before.micro_f1, before.failed, before.attempted);
    std::printf("centralized  after-failure:  microF1=%.4f failed=%zu/%zu "
                "(coordinator down — unrecoverable)\n\n",
                after.micro_f1, after.failed, after.attempted);
    csv.AddRow({"centralized", "before", std::to_string(before.micro_f1),
                std::to_string(before.failed),
                std::to_string(before.attempted)});
    csv.AddRow({"centralized", "after_failure",
                std::to_string(after.micro_f1), std::to_string(after.failed),
                std::to_string(after.attempted)});
  }

  // ---- CEMPaR: kill every super-peer, stabilize, repair. ----------------
  {
    ExperimentOptions opt = MacroDefaults(AlgorithmType::kCempar, 64);
    auto env = std::move(Environment::Create(opt.env)).value();
    Cempar cempar(env->sim(), env->net(), *env->chord(), opt.cempar);
    auto peers = std::move(DistributeData(split.train, 64, opt.distribution,
                                          &split.train_user))
                     .value();
    cempar.Setup(std::move(peers), corpus.dataset.num_tags()).ToString();
    bool trained = false;
    cempar.Train([&](Status) { trained = true; });
    env->RunUntilFlag(trained, 3600);

    EvalResult before = Evaluate(*env, cempar, split.test,
                                 corpus.dataset.num_tags(), {}, 3);

    std::set<NodeId> killed;
    for (NodeId owner : cempar.HomeOwners()) {
      if (owner != kInvalidNode && killed.insert(owner).second) {
        env->net().SetOnline(owner, false);
      }
    }
    std::printf("cempar       killed %zu super-peers; live homes %zu/%zu\n",
                killed.size(), cempar.NumLiveHomes(),
                cempar.HomeOwners().size());
    EvalResult broken = Evaluate(*env, cempar, split.test,
                                 corpus.dataset.num_tags(), killed, 4);

    // Recovery: DHT stabilization + model re-upload.
    env->chord()->Bootstrap();
    bool repaired = false;
    cempar.RepairRound([&] { repaired = true; });
    env->RunUntilFlag(repaired, 3600);
    EvalResult recovered = Evaluate(*env, cempar, split.test,
                                    corpus.dataset.num_tags(), killed, 5);

    std::printf("cempar       before-failure: microF1=%.4f failed=%zu/%zu\n",
                before.micro_f1, before.failed, before.attempted);
    std::printf("cempar       super-peers down: microF1=%.4f failed=%zu/%zu\n",
                broken.micro_f1, broken.failed, broken.attempted);
    std::printf("cempar       after repair:   microF1=%.4f failed=%zu/%zu "
                "(recovered)\n",
                recovered.micro_f1, recovered.failed, recovered.attempted);
    csv.AddRow({"cempar", "before", std::to_string(before.micro_f1),
                std::to_string(before.failed),
                std::to_string(before.attempted)});
    csv.AddRow({"cempar", "superpeers_down", std::to_string(broken.micro_f1),
                std::to_string(broken.failed),
                std::to_string(broken.attempted)});
    csv.AddRow({"cempar", "after_repair",
                std::to_string(recovered.micro_f1),
                std::to_string(recovered.failed),
                std::to_string(recovered.attempted)});
  }
  WriteResults(csv, "claim6_fault_tolerance.csv");
  return 0;
}
