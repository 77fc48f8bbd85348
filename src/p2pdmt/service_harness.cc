#include "p2pdmt/service_harness.h"

#include <algorithm>
#include <utility>

#include "p2pdmt/data_distribution.h"

namespace p2pdt {

Result<std::unique_ptr<TrainedService>> BuildTrainedService(
    const VectorizedCorpus& corpus, const ServiceHarnessOptions& options) {
  CorpusSplit split = SplitCorpus(corpus, kTrainFraction, options.seed);
  if (split.train.size() == 0 || split.test.size() == 0) {
    return Status::InvalidArgument(
        "service harness needs non-empty train and test splits");
  }

  ExperimentOptions setup;
  setup.algorithm = options.algorithm;
  setup.env = options.env;
  setup.env.observe.metrics = true;
  setup.cempar = options.cempar;
  setup.pace = options.pace;
  Result<std::vector<DatasetShard>> shards = DistributeDataShared(
      std::make_shared<const MultiLabelDataset>(split.train),
      setup.env.num_peers, options.distribution, &split.train_user);
  if (!shards.ok()) return shards.status();
  Result<SimulatedClassifier> sim = SetupClassifier(
      setup, std::move(shards).value(), corpus.dataset.num_tags());
  if (!sim.ok()) return sim.status();

  auto service = std::make_unique<TrainedService>();
  service->env = std::move(sim->env);
  service->classifier = std::move(sim->algo);
  service->num_peers = setup.env.num_peers;
  Environment& env = *service->env;
  Result<double> train_seconds =
      TrainToQuiescence(env, *service->classifier, kMaxTrainSimSeconds);
  if (!train_seconds.ok()) return train_seconds.status();
  service->train_sim_seconds = *train_seconds;

  service->catalog =
      BuildServiceCatalog(corpus, options.max_docs, options.seed);

  service->host =
      std::make_unique<ServiceHost>(&env.sim(), service->classifier.get());
  return service;
}

std::vector<SparseVector> BuildServiceCatalog(const VectorizedCorpus& corpus,
                                              std::size_t max_docs,
                                              uint64_t seed) {
  CorpusSplit split = SplitCorpus(corpus, kTrainFraction, seed);
  const std::size_t catalog =
      max_docs == 0 ? split.test.size()
                    : std::min(max_docs, split.test.size());
  std::vector<SparseVector> docs;
  docs.reserve(catalog);
  for (std::size_t i = 0; i < catalog; ++i) docs.push_back(split.test[i].x);
  return docs;
}

}  // namespace p2pdt
