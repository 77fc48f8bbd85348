#include "text/vectorizer.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace p2pdt {

Vectorizer::Vectorizer(VectorizerOptions options) : options_(options) {}

void Vectorizer::FitIdf(const std::vector<std::vector<std::string>>& corpus,
                        Lexicon& lexicon) {
  for (const auto& doc : corpus) {
    std::map<uint32_t, bool> seen;
    for (const auto& tok : doc) seen[lexicon.GetOrAddId(tok)] = true;
    for (const auto& [id, _] : seen) ++doc_freq_[id];
    ++num_documents_;
  }
}

double Vectorizer::WeightFor(uint32_t id, double tf) const {
  switch (options_.weighting) {
    case TermWeighting::kTermFrequency:
      return tf;
    case TermWeighting::kLogTermFrequency:
      return 1.0 + std::log(tf);
    case TermWeighting::kBinary:
      return 1.0;
    case TermWeighting::kTfIdf: {
      auto it = doc_freq_.find(id);
      double df = (it == doc_freq_.end()) ? 0.0
                                          : static_cast<double>(it->second);
      // Smoothed idf; unseen words get the maximum idf.
      double idf = std::log((1.0 + static_cast<double>(num_documents_)) /
                            (1.0 + df)) +
                   1.0;
      return tf * idf;
    }
  }
  return tf;
}

SparseVector Vectorizer::Finish(
    std::vector<SparseVector::Entry> counts) const {
  SparseVector v = SparseVector::FromPairs(std::move(counts));
  // FromPairs summed duplicate ids, so entries now hold raw term counts;
  // map them through the weighting scheme.
  std::vector<SparseVector::Entry> weighted;
  weighted.reserve(v.nnz());
  for (const auto& [id, tf] : v.entries()) {
    weighted.emplace_back(id, WeightFor(id, tf));
  }
  SparseVector out = SparseVector::FromPairs(std::move(weighted));
  if (options_.l2_normalize) out.L2Normalize();
  return out;
}

SparseVector Vectorizer::VectorizeIds(std::vector<uint32_t>& ids) const {
  std::sort(ids.begin(), ids.end());
  std::vector<SparseVector::Entry> weighted;
  weighted.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size();) {
    std::size_t j = i + 1;
    while (j < ids.size() && ids[j] == ids[i]) ++j;
    weighted.emplace_back(ids[i],
                          WeightFor(ids[i], static_cast<double>(j - i)));
    i = j;
  }
  // FromPairs drops zero weights and sizes the vector exactly, as Finish's
  // second pass does.
  SparseVector out = SparseVector::FromPairs(std::move(weighted));
  if (options_.l2_normalize) out.L2Normalize();
  return out;
}

SparseVector Vectorizer::Vectorize(const std::vector<std::string>& tokens,
                                   Lexicon& lexicon) const {
  std::vector<SparseVector::Entry> counts;
  counts.reserve(tokens.size());
  for (const auto& tok : tokens) {
    counts.emplace_back(lexicon.GetOrAddId(tok), 1.0);
  }
  return Finish(std::move(counts));
}

SparseVector Vectorizer::VectorizeConst(
    const std::vector<std::string>& tokens, const Lexicon& lexicon) const {
  std::vector<SparseVector::Entry> counts;
  counts.reserve(tokens.size());
  for (const auto& tok : tokens) {
    Result<uint32_t> id = lexicon.GetId(tok);
    if (id.ok()) counts.emplace_back(id.value(), 1.0);
  }
  return Finish(std::move(counts));
}

}  // namespace p2pdt
