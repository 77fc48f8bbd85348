#include "corpus/vectorize.h"

#include <string_view>

namespace p2pdt {

namespace {

/// Fills `out` from `documents`: tag ids in `tag_names` order, then every
/// text through Preprocessor::ProcessAll, one dataset example per document.
Status VectorizeDocuments(const std::vector<RawDocument>& documents,
                          const std::vector<std::string>& tag_names,
                          std::size_t num_users, Preprocessor& preprocessor,
                          VectorizedCorpus& out) {
  out.tag_names = tag_names;
  out.num_users = num_users;
  for (std::size_t t = 0; t < tag_names.size(); ++t) {
    out.tag_ids.emplace(tag_names[t], static_cast<TagId>(t));
  }
  out.dataset.set_num_tags(static_cast<TagId>(tag_names.size()));

  std::vector<std::vector<TagId>> tags(documents.size());
  std::vector<std::string_view> texts;
  texts.reserve(documents.size());
  for (std::size_t i = 0; i < documents.size(); ++i) {
    for (const std::string& tag : documents[i].tags) {
      auto it = out.tag_ids.find(tag);
      if (it == out.tag_ids.end()) {
        return Status::Internal("document references unknown tag: " + tag);
      }
      tags[i].push_back(it->second);
    }
    texts.push_back(documents[i].text);
  }

  std::vector<SparseVector> vectors = preprocessor.ProcessAll(texts);
  out.doc_user.reserve(documents.size());
  for (std::size_t i = 0; i < documents.size(); ++i) {
    MultiLabelExample ex;
    ex.x = std::move(vectors[i]);
    ex.tags = std::move(tags[i]);
    out.doc_user.push_back(documents[i].user);
    out.dataset.Add(std::move(ex));
  }
  return Status::OK();
}

}  // namespace

Result<VectorizedCorpus> VectorizeCorpus(const GeneratedCorpus& corpus,
                                         Preprocessor& preprocessor) {
  VectorizedCorpus out;
  P2PDT_RETURN_IF_ERROR(VectorizeDocuments(corpus.documents,
                                           corpus.tag_names,
                                           corpus.num_users(), preprocessor,
                                           out));
  return out;
}

Result<VectorizedCorpus> MakeVectorizedCorpus(const CorpusOptions& options) {
  Result<GeneratedCorpus> corpus = GenerateCorpus(options);
  if (!corpus.ok()) return corpus.status();
  Preprocessor preprocessor;
  return VectorizeCorpus(corpus.value(), preprocessor);
}

Result<VectorizedStream> VectorizeStream(const StreamedCorpus& stream,
                                         Preprocessor& preprocessor) {
  VectorizedStream out;
  out.num_epochs = stream.num_epochs;
  out.first_drift_epoch = stream.first_drift_epoch;
  out.doc_epoch = stream.doc_epoch;
  P2PDT_RETURN_IF_ERROR(VectorizeDocuments(stream.documents,
                                           stream.tag_names,
                                           stream.num_users(), preprocessor,
                                           out.corpus));
  return out;
}

Result<VectorizedStream> MakeVectorizedStream(const StreamOptions& options) {
  Result<StreamedCorpus> stream = GenerateStream(options);
  if (!stream.ok()) return stream.status();
  Preprocessor preprocessor;
  return VectorizeStream(stream.value(), preprocessor);
}

}  // namespace p2pdt
