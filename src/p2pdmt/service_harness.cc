#include "p2pdmt/service_harness.h"

#include <algorithm>
#include <utility>

#include "p2pdmt/data_distribution.h"

namespace p2pdt {

Result<std::unique_ptr<TrainedService>> BuildTrainedService(
    const VectorizedCorpus& corpus, const ServiceHarnessOptions& options) {
  CorpusSplit split = SplitCorpus(corpus, options.train_fraction, options.seed);
  if (split.train.size() == 0 || split.test.size() == 0) {
    return Status::InvalidArgument(
        "service harness needs non-empty train and test splits");
  }

  auto service = std::make_unique<TrainedService>();

  EnvironmentOptions env_options = options.env;
  env_options.observe.metrics = true;
  Result<std::unique_ptr<Environment>> env_result =
      Environment::Create(env_options);
  if (!env_result.ok()) return env_result.status();
  service->env = std::move(env_result).value();
  Environment& env = *service->env;
  service->num_peers = env_options.num_peers;

  ExperimentOptions algo_options;
  algo_options.algorithm = options.algorithm;
  algo_options.cempar = options.cempar;
  algo_options.pace = options.pace;
  Result<std::unique_ptr<P2PClassifier>> algo_result =
      MakeClassifier(env, algo_options);
  if (!algo_result.ok()) return algo_result.status();
  service->classifier = std::move(algo_result).value();
  P2PClassifier& algo = *service->classifier;

  auto shared = std::make_shared<const MultiLabelDataset>(split.train);
  Result<std::vector<std::vector<uint32_t>>> indices = DistributeIndices(
      *shared, service->num_peers, options.distribution, &split.train_user);
  if (!indices.ok()) return indices.status();
  std::vector<DatasetShard> shards;
  shards.reserve(service->num_peers);
  for (std::size_t p = 0; p < service->num_peers; ++p) {
    shards.emplace_back(shared, std::move((*indices)[p]));
  }
  P2PDT_RETURN_IF_ERROR(
      algo.SetupShards(std::move(shards), corpus.dataset.num_tags()));

  env.StartDynamics();
  bool train_done = false;
  Status train_status = Status::OK();
  const SimTime train_start = env.sim().Now();
  algo.Train([&](Status s) {
    train_status = s;
    train_done = true;
    service->train_sim_seconds = env.sim().Now() - train_start;
  });
  env.RunUntilFlag(train_done, options.max_train_sim_seconds);
  if (!train_done) {
    return Status::Internal("service harness: training did not quiesce");
  }
  P2PDT_RETURN_IF_ERROR(train_status);

  service->catalog =
      BuildServiceCatalog(corpus, options.train_fraction, options.max_docs,
                          options.seed);

  service->host =
      std::make_unique<ServiceHost>(&env.sim(), service->classifier.get());
  return service;
}

std::vector<SparseVector> BuildServiceCatalog(const VectorizedCorpus& corpus,
                                              double train_fraction,
                                              std::size_t max_docs,
                                              uint64_t seed) {
  CorpusSplit split = SplitCorpus(corpus, train_fraction, seed);
  const std::size_t catalog =
      max_docs == 0 ? split.test.size()
                    : std::min(max_docs, split.test.size());
  std::vector<SparseVector> docs;
  docs.reserve(catalog);
  for (std::size_t i = 0; i < catalog; ++i) docs.push_back(split.test[i].x);
  return docs;
}

}  // namespace p2pdt
