// FIG2 — driving P2PDMT as a standalone simulation toolkit: configure the
// physical network, generate structured and unstructured overlays, plug in
// churn models, distribute data, run a P2P data-mining algorithm, log
// activities and export statistics and network visualizations — every box
// of the paper's Fig. 2 architecture.
//
// Build & run:  ./build/examples/simulation_campaign

#include <cstdio>

#include "p2pdmt/activity_log.h"
#include "p2pdmt/evaluation.h"
#include "p2pdmt/experiment.h"
#include "p2pdmt/visualize.h"

using namespace p2pdt;

int main() {
  std::printf("=== P2PDMT simulation campaign (Fig. 2) ===\n\n");

  // --- 1. Configure the physical network ---------------------------------
  EnvironmentOptions eo;
  eo.num_peers = 48;
  eo.physical.min_latency = 0.02;
  eo.physical.max_latency = 0.15;
  eo.physical.bandwidth_bytes_per_sec = 512.0 * 1024.0;
  eo.physical.loss_rate = 0.01;
  // --- 2. Generate a structured (DHT) overlay with churn -----------------
  eo.overlay = OverlayType::kChord;
  eo.churn = ChurnType::kExponential;
  eo.churn_mean_online_sec = 300.0;
  eo.churn_mean_offline_sec = 60.0;
  eo.seed = 7;

  auto env = std::move(Environment::Create(eo)).value();
  env->StartDynamics();

  // --- 3. Log activities: churn transitions as they happen ---------------
  ActivityLog log;
  env->churn().AddListener([&](NodeId node, bool online) {
    log.Record(env->sim().Now(), "peer/" + std::to_string(node), "churn",
               online ? "rejoined" : "failed");
  });

  // --- 4. Distribute data over the peers ---------------------------------
  CorpusOptions co;
  co.num_users = 48;
  co.min_docs_per_user = 50;
  co.max_docs_per_user = 60;
  co.num_tags = 8;
  co.vocabulary_size = 1600;
  co.seed = 3;
  VectorizedCorpus corpus = std::move(MakeVectorizedCorpus(co)).value();
  CorpusSplit split = SplitCorpus(corpus, kTrainFraction, 5);

  DataDistributionOptions dist;
  dist.size = SizeDistribution::kZipf;
  dist.cls = ClassDistribution::kNonIidDirichlet;
  auto peers =
      std::move(DistributeData(split.train, 48, dist, nullptr)).value();
  DistributionSummary summary =
      SummarizeDistribution(peers, corpus.dataset.num_tags());
  std::printf("data distribution: %s\n\n", summary.ToString().c_str());

  // --- 5. Run a P2P data-mining algorithm under churn --------------------
  ExperimentOptions xo;
  xo.env = eo;
  xo.algorithm = AlgorithmType::kCempar;
  Cempar cempar(env->sim(), env->net(), *env->chord(), xo.cempar);
  cempar.Setup(std::move(peers), corpus.dataset.num_tags()).ToString();

  log.Record(env->sim().Now(), "system", "train", "protocol started");
  bool trained = false;
  cempar.Train([&](Status s) {
    trained = true;
    std::printf("training quiesced at t=%.2fs: %s\n", env->sim().Now(),
                s.ToString().c_str());
  });
  env->RunUntilFlag(trained, 3600);
  log.Record(env->sim().Now(), "system", "train", "protocol quiesced");

  // --- 6. Evaluate at scheduled times while churn continues --------------
  // EvaluationSchedule records the time series; the probe runs the same
  // query burst the paper's demo would drive interactively.
  EvaluationSchedule series(env->sim(), {"micro_f1", "failed", "online"});
  std::printf("\nscheduled evaluations (accuracy over time under churn):\n");
  std::printf("%10s %8s %8s %10s\n", "sim-time", "microF1", "failed",
              "online");
  for (int round = 0; round < 5; ++round) {
    // Let churn act between evaluation points.
    env->sim().RunUntil(env->sim().Now() + 60.0);
    std::size_t n = std::min<std::size_t>(split.test.size(), 80);
    std::vector<std::vector<TagId>> truth(n), predicted(n);
    std::size_t failed = 0, outstanding = n;
    bool done = (n == 0);
    Rng rng(1000 + round);
    for (std::size_t i = 0; i < n; ++i) {
      truth[i] = split.test[i].tags;
      NodeId requester;
      int guard = 0;
      do {
        requester = rng.NextU64(48);
      } while (!env->net().IsOnline(requester) && ++guard < 100);
      cempar.Predict(requester, split.test[i].x, [&, i](P2PPrediction p) {
        if (!p.success) ++failed;
        predicted[i] = std::move(p.tags);
        if (--outstanding == 0) done = true;
      });
    }
    env->RunUntilFlag(done, 600);
    MultiLabelMetrics m =
        EvaluateMultiLabel(truth, predicted, corpus.dataset.num_tags());
    std::printf("%10.1f %8.4f %5zu/%-3zu %7zu/48\n", env->sim().Now(),
                m.micro_f1, failed, n, env->net().num_online());
    log.Record(env->sim().Now(), "system", "evaluate",
               "microF1=" + std::to_string(m.micro_f1));
    series.ScheduleAt({env->sim().Now()}, [&, m, failed] {
      return std::vector<double>{
          m.micro_f1, static_cast<double>(failed),
          static_cast<double>(env->net().num_online())};
    });
    env->sim().RunUntil(env->sim().Now());  // flush the probe event
    // Periodic self-healing, as a deployed system would do.
    bool repaired = false;
    cempar.RepairRound([&] { repaired = true; });
    env->RunUntilFlag(repaired, 600);
  }

  // --- 7. Export statistics, logs and visualizations ---------------------
  std::printf("\nfinal network statistics:\n%s",
              env->net().stats().ToString().c_str());
  std::printf("\nchurn events observed: %zu failures, %zu rejoins\n",
              static_cast<std::size_t>(env->churn().num_failures()),
              static_cast<std::size_t>(env->churn().num_rejoins()));

  series.WriteCsv("campaign_timeseries.csv").ToString();
  std::printf("[wrote campaign_timeseries.csv (%zu evaluation rows)]\n",
              series.rows().size());
  log.WriteCsv("campaign_activity.csv").ToString();
  WriteDotFile(ChordToDot(*env->chord(), env->net()), "campaign_chord.dot")
      .ToString();
  std::printf("\n[wrote campaign_activity.csv (%zu events) and "
              "campaign_chord.dot]\n",
              log.size());

  // Bonus: an unstructured overlay of the same size, for visual contrast.
  {
    Simulator sim2;
    PhysicalNetwork net2(sim2, eo.physical);
    net2.AddNodes(48);
    UnstructuredOverlay flood(sim2, net2, {});
    for (NodeId i = 0; i < 48; ++i) flood.AddNode(i);
    WriteDotFile(UnstructuredToDot(flood, net2),
                 "campaign_unstructured.dot")
        .ToString();
    std::printf("[wrote campaign_unstructured.dot — mean degree %.1f]\n",
                flood.MeanDegree());
  }
  std::printf("\ncampaign complete.\n");
  return 0;
}
