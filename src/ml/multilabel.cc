#include "ml/multilabel.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"

namespace p2pdt {

OneVsAllModel& OneVsAllModel::operator=(const OneVsAllModel& other) {
  if (this == &other) return *this;
  models_.clear();
  models_.reserve(other.models_.size());
  for (const auto& m : other.models_) {
    models_.push_back(m ? m->Clone() : nullptr);
  }
  return *this;
}

std::vector<double> OneVsAllModel::Scores(const SparseVector& x) const {
  std::vector<double> scores(models_.size(),
                             -std::numeric_limits<double>::infinity());
  for (std::size_t t = 0; t < models_.size(); ++t) {
    if (models_[t]) scores[t] = models_[t]->Decision(x);
  }
  return scores;
}

std::vector<TagId> OneVsAllModel::PredictTags(
    const SparseVector& x, const TagDecisionPolicy& policy) const {
  return DecideTags(Scores(x), policy);
}

void OneVsAllModel::SetModel(TagId tag,
                             std::unique_ptr<BinaryClassifier> m) {
  if (tag >= models_.size()) models_.resize(tag + 1);
  models_[tag] = std::move(m);
}

std::size_t OneVsAllModel::WireSize() const {
  std::size_t bytes = 0;
  for (const auto& m : models_) {
    if (m) bytes += m->WireSize();
  }
  return bytes;
}

std::vector<TagId> DecideTags(const std::vector<double>& scores,
                              const TagDecisionPolicy& policy) {
  std::vector<TagId> tags;
  for (std::size_t t = 0; t < scores.size(); ++t) {
    if (scores[t] > policy.threshold) tags.push_back(static_cast<TagId>(t));
  }
  if (tags.empty() && policy.assign_best_when_empty && !scores.empty()) {
    std::size_t best =
        std::max_element(scores.begin(), scores.end()) - scores.begin();
    if (std::isfinite(scores[best])) tags.push_back(static_cast<TagId>(best));
  }
  if (policy.max_tags > 0 && tags.size() > policy.max_tags) {
    // Keep the highest-scoring tags.
    std::sort(tags.begin(), tags.end(), [&](TagId a, TagId b) {
      return scores[a] > scores[b];
    });
    tags.resize(policy.max_tags);
    std::sort(tags.begin(), tags.end());
  }
  return tags;
}

namespace {

/// Shared body over any dataset-like view (materialized or flyweight):
/// only size/num_tags/TagCounts/OneAgainstAll are touched, and both views
/// return bit-identical results for those.
template <typename Data>
Result<OneVsAllModel> TrainOneVsAllImpl(const Data& data,
                                        const IndexedBinaryTrainer& trainer) {
  if (data.empty()) {
    return Status::InvalidArgument("cannot train one-vs-all on empty data");
  }
  std::vector<std::unique_ptr<BinaryClassifier>> models(data.num_tags());
  std::vector<std::size_t> counts = data.TagCounts();

  // Degenerate single-class tags resolve without training; the rest form
  // the worklist that fans out across the pool.
  std::vector<TagId> work;
  for (TagId t = 0; t < data.num_tags(); ++t) {
    if (counts[t] == 0) {
      models[t] = std::make_unique<ConstantClassifier>(-1.0);
    } else if (counts[t] == data.size()) {
      models[t] = std::make_unique<ConstantClassifier>(1.0);
    } else {
      work.push_back(t);
    }
  }

  // Each task writes only its own slots; failure statuses are collected
  // per tag so the reported error is the lowest failing tag no matter
  // which thread hit it first.
  std::vector<Status> failures(work.size(), Status::OK());
  // One tag per task gives the best balance under Zipf-skewed per-tag cost.
  ParallelFor(0, work.size(), /*chunk=*/1,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                  const TagId t = work[i];
                  Result<std::unique_ptr<BinaryClassifier>> model =
                      trainer(data.OneAgainstAll(t), t);
                  if (!model.ok()) {
                    failures[i] = model.status();
                    continue;
                  }
                  models[t] = std::move(model).value();
                }
              });
  for (const Status& s : failures) {
    if (!s.ok()) return s;
  }
  return OneVsAllModel(std::move(models));
}

/// Adapts a tag-oblivious trainer to the indexed interface.
IndexedBinaryTrainer IgnoreTag(const BinaryTrainer& trainer) {
  return [&trainer](const std::vector<Example>& examples, TagId)
             -> Result<std::unique_ptr<BinaryClassifier>> {
    return trainer(examples);
  };
}

}  // namespace

Result<OneVsAllModel> TrainOneVsAll(const MultiLabelDataset& data,
                                    const BinaryTrainer& trainer) {
  return TrainOneVsAllImpl(data, IgnoreTag(trainer));
}

Result<OneVsAllModel> TrainOneVsAll(const MultiLabelDataset& data,
                                    const IndexedBinaryTrainer& trainer) {
  return TrainOneVsAllImpl(data, trainer);
}

Result<OneVsAllModel> TrainOneVsAll(const DatasetShard& data,
                                    const BinaryTrainer& trainer) {
  return TrainOneVsAllImpl(data, IgnoreTag(trainer));
}

Result<OneVsAllModel> TrainOneVsAll(const DatasetShard& data,
                                    const IndexedBinaryTrainer& trainer) {
  return TrainOneVsAllImpl(data, trainer);
}

}  // namespace p2pdt
