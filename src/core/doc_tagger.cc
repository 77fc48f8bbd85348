#include "core/doc_tagger.h"

#include <algorithm>
#include <cmath>

#include "core/metadata_store.h"
#include "ml/linear_svm.h"

namespace p2pdt {

namespace {

/// Blend between global and local scores when both exist
/// (score = w·global + (1−w)·local).
constexpr double kGlobalWeight = 0.7;

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

DocTagger::DocTagger(DocTaggerOptions options)
    : options_(std::move(options)), preprocessor_(options_.preprocessor) {}

DocId DocTagger::AddDocument(std::string title, std::string text) {
  Document doc;
  doc.id = documents_.size();
  doc.title = std::move(title);
  doc.vector = preprocessor_.Process(text);
  doc.text = std::move(text);
  documents_.push_back(std::move(doc));
  return documents_.back().id;
}

Result<const Document*> DocTagger::GetDocument(DocId id) const {
  if (id >= documents_.size()) {
    return Status::NotFound("no document with id " + std::to_string(id));
  }
  return &documents_[id];
}

std::vector<DocId> DocTagger::UntaggedDocuments() const {
  std::vector<DocId> out;
  for (const Document& doc : documents_) {
    if (doc.tags.empty()) out.push_back(doc.id);
  }
  return out;
}

TagId DocTagger::RegisterTag(const std::string& name) {
  auto it = tag_ids_.find(name);
  if (it != tag_ids_.end()) return it->second;
  TagId id = static_cast<TagId>(tag_names_.size());
  tag_names_.push_back(name);
  tag_ids_.emplace(name, id);
  return id;
}

void DocTagger::SetTags(Document& doc, std::vector<TagAssignment> tags) {
  doc.tags = std::move(tags);
  library_.Index(doc);
}

Status DocTagger::ManualTag(DocId id,
                            const std::vector<std::string>& tags) {
  if (id >= documents_.size()) {
    return Status::NotFound("no document with id " + std::to_string(id));
  }
  if (tags.empty()) {
    return Status::InvalidArgument("manual tagging needs at least one tag");
  }
  std::vector<TagAssignment> assignments;
  assignments.reserve(tags.size());
  for (const std::string& tag : tags) {
    if (tag.empty()) {
      return Status::InvalidArgument("empty tag name");
    }
    RegisterTag(tag);
    assignments.push_back({tag, TagSource::kManual, 1.0});
  }
  SetTags(documents_[id], std::move(assignments));
  return Status::OK();
}

Status DocTagger::TrainLocal() {
  MultiLabelDataset data(static_cast<TagId>(tag_names_.size()));
  for (const Document& doc : documents_) {
    if (doc.tags.empty()) continue;
    MultiLabelExample ex;
    ex.x = doc.vector;
    for (const TagAssignment& a : doc.tags) {
      auto it = tag_ids_.find(a.tag);
      if (it != tag_ids_.end()) ex.tags.push_back(it->second);
    }
    if (!ex.tags.empty()) data.Add(std::move(ex));
  }
  if (data.empty()) {
    return Status::FailedPrecondition(
        "no tagged documents to train on — manually tag some first");
  }
  data.set_num_tags(static_cast<TagId>(tag_names_.size()));

  LinearSvmOptions svm = options_.svm;
  BinaryTrainer trainer =
      [svm](const std::vector<Example>& examples)
      -> Result<std::unique_ptr<BinaryClassifier>> {
    Result<LinearSvmModel> model = TrainLinearSvm(examples, svm);
    if (!model.ok()) return model.status();
    return std::unique_ptr<BinaryClassifier>(
        std::make_unique<LinearSvmModel>(std::move(model).value()));
  };
  Result<OneVsAllModel> model = TrainOneVsAll(data, trainer);
  if (!model.ok()) return model.status();
  local_model_ = std::move(model).value();
  has_local_model_ = true;
  return Status::OK();
}

void DocTagger::AttachGlobalScorer(GlobalScorer scorer,
                                   const std::vector<std::string>& tag_names) {
  global_scorer_ = std::move(scorer);
  global_tag_map_.clear();
  global_tag_map_.reserve(tag_names.size());
  for (const std::string& name : tag_names) {
    global_tag_map_.push_back(RegisterTag(name));
  }
}

std::vector<double> DocTagger::ScoreVector(const SparseVector& x) const {
  const std::size_t n = tag_names_.size();
  std::vector<double> local(n, 0.0), global(n, 0.0);
  std::vector<bool> has_local(n, false), has_global(n, false);

  if (has_local_model_) {
    std::vector<double> scores = local_model_.Scores(x);
    for (std::size_t t = 0; t < scores.size() && t < n; ++t) {
      if (std::isfinite(scores[t])) {
        local[t] = scores[t];
        has_local[t] = true;
      }
    }
  }
  if (global_scorer_) {
    std::vector<double> scores = global_scorer_(x);
    for (std::size_t i = 0; i < scores.size() && i < global_tag_map_.size();
         ++i) {
      TagId t = global_tag_map_[i];
      if (std::isfinite(scores[i])) {
        global[t] = scores[i];
        has_global[t] = true;
      }
    }
  }

  std::vector<double> combined(n, -1.0);  // default: confidently negative
  for (std::size_t t = 0; t < n; ++t) {
    if (has_local[t] && has_global[t]) {
      combined[t] =
          kGlobalWeight * global[t] + (1.0 - kGlobalWeight) * local[t];
    } else if (has_global[t]) {
      combined[t] = global[t];
    } else if (has_local[t]) {
      combined[t] = local[t];
    }
  }
  return combined;
}

Result<std::vector<TagSuggestion>> DocTagger::SuggestTags(
    DocId id, double min_confidence) const {
  if (id >= documents_.size()) {
    return Status::NotFound("no document with id " + std::to_string(id));
  }
  if (!has_local_model_ && !global_scorer_) {
    return Status::FailedPrecondition(
        "no model available — call TrainLocal() or AttachGlobalScorer()");
  }
  std::vector<double> scores = ScoreVector(documents_[id].vector);
  std::vector<TagSuggestion> out;
  for (std::size_t t = 0; t < scores.size(); ++t) {
    double confidence = Sigmoid(scores[t]);
    if (confidence >= min_confidence) {
      out.push_back({tag_names_[t], confidence});
    }
  }
  // Alphabetical, as the demo's Suggestion Cloud displays them.
  std::sort(out.begin(), out.end(),
            [](const TagSuggestion& a, const TagSuggestion& b) {
              return a.tag < b.tag;
            });
  return out;
}

Result<std::vector<std::string>> DocTagger::AutoTag(DocId id) {
  if (id >= documents_.size()) {
    return Status::NotFound("no document with id " + std::to_string(id));
  }
  if (!has_local_model_ && !global_scorer_) {
    return Status::FailedPrecondition(
        "no model available — call TrainLocal() or AttachGlobalScorer()");
  }
  Document& doc = documents_[id];
  std::vector<double> scores = ScoreVector(doc.vector);
  std::vector<TagId> decided = DecideTags(scores, options_.policy);

  // Keep manual tags; replace previous auto tags.
  std::vector<TagAssignment> next;
  for (const TagAssignment& a : doc.tags) {
    if (a.source == TagSource::kManual) next.push_back(a);
  }
  std::vector<std::string> assigned;
  for (TagId t : decided) {
    const std::string& name = tag_names_[t];
    bool already = false;
    for (const TagAssignment& a : next) {
      if (a.tag == name) {
        already = true;
        break;
      }
    }
    if (already) continue;
    next.push_back({name, TagSource::kAuto, Sigmoid(scores[t])});
    assigned.push_back(name);
  }
  SetTags(doc, std::move(next));
  return assigned;
}

Result<std::size_t> DocTagger::AutoTagAll() {
  std::size_t tagged = 0;
  for (DocId id : UntaggedDocuments()) {
    Result<std::vector<std::string>> r = AutoTag(id);
    if (!r.ok()) return r.status();
    if (!r.value().empty()) ++tagged;
  }
  return tagged;
}

Status DocTagger::Refine(DocId id,
                         const std::vector<std::string>& corrected_tags) {
  if (id >= documents_.size()) {
    return Status::NotFound("no document with id " + std::to_string(id));
  }
  Document& doc = documents_[id];

  std::vector<TagId> predicted;
  for (const TagAssignment& a : doc.tags) {
    auto it = tag_ids_.find(a.tag);
    if (it != tag_ids_.end()) predicted.push_back(it->second);
  }
  std::sort(predicted.begin(), predicted.end());

  std::vector<TagId> corrected;
  std::vector<TagAssignment> assignments;
  for (const std::string& tag : corrected_tags) {
    if (tag.empty()) return Status::InvalidArgument("empty tag name");
    corrected.push_back(RegisterTag(tag));
    assignments.push_back({tag, TagSource::kManual, 1.0});
  }
  std::sort(corrected.begin(), corrected.end());
  corrected.erase(std::unique(corrected.begin(), corrected.end()),
                  corrected.end());

  // Online model update (only linear per-tag models are adjustable; tags
  // that appeared for the first time in this correction have no model yet
  // and will be learned at the next TrainLocal()).
  if (has_local_model_) {
    p2pdt::RefineTags(local_model_, doc.vector, predicted, corrected);
  }
  SetTags(doc, std::move(assignments));
  return Status::OK();
}

TagCloud DocTagger::BuildTagCloud() const { return TagCloud::Build(library_); }

Result<std::size_t> DocTagger::SaveMetadata(
    const std::string& directory) const {
  MetadataStore store(directory);
  std::size_t saved = 0;
  for (const Document& doc : documents_) {
    if (doc.tags.empty()) continue;
    P2PDT_RETURN_IF_ERROR(store.Save(doc));
    ++saved;
  }
  return saved;
}

Result<std::size_t> DocTagger::LoadMetadata(const std::string& directory) {
  MetadataStore store(directory);
  Result<std::vector<DocId>> ids = store.ListDocuments();
  if (!ids.ok()) return ids.status();
  std::size_t restored = 0;
  for (DocId id : ids.value()) {
    if (id >= documents_.size()) continue;  // sidecar for an unknown doc
    Result<std::vector<TagAssignment>> tags = store.Load(id);
    if (!tags.ok()) return tags.status();
    for (const TagAssignment& a : tags.value()) RegisterTag(a.tag);
    SetTags(documents_[id], std::move(tags).value());
    ++restored;
  }
  return restored;
}

}  // namespace p2pdt
