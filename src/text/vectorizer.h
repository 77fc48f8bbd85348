#ifndef P2PDT_TEXT_VECTORIZER_H_
#define P2PDT_TEXT_VECTORIZER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/sparse_vector.h"
#include "text/lexicon.h"

namespace p2pdt {

/// Term weighting scheme for document vectors.
enum class TermWeighting {
  /// Raw term frequency — the paper's formulation ("the value of the
  /// attributes represents the word frequency in the documents", Sec. 2).
  kTermFrequency,
  /// Log-scaled TF: 1 + ln(tf). Dampens very frequent words.
  kLogTermFrequency,
  /// TF × inverse document frequency; requires the vectorizer to have seen a
  /// corpus via FitIdf().
  kTfIdf,
  /// Binary presence/absence.
  kBinary,
};

struct VectorizerOptions {
  TermWeighting weighting = TermWeighting::kTermFrequency;
  /// L2-normalize the final vector. SVMs on text conventionally use unit
  /// vectors; keeps the margin scale comparable across document lengths.
  bool l2_normalize = true;
};

/// Turns token streams into sparse feature vectors against a `Lexicon`.
///
/// Final stage of the preprocessing pipeline: a document d becomes
/// {w_1, ..., w_m}^T, with w_j the weight of word id j.
class Vectorizer {
 public:
  explicit Vectorizer(VectorizerOptions options = {});

  /// Learns document frequencies from a tokenized corpus; required before
  /// vectorizing with kTfIdf. `lexicon` is updated with every word seen.
  void FitIdf(const std::vector<std::vector<std::string>>& corpus,
              Lexicon& lexicon);

  /// Vectorizes one tokenized document, growing `lexicon` as needed.
  SparseVector Vectorize(const std::vector<std::string>& tokens,
                         Lexicon& lexicon) const;

  /// Vectorizes without mutating the lexicon: unseen words are dropped
  /// (growing mode) or hashed (hashed mode). This is what peers apply to
  /// incoming *test* documents, so their lexicons stay fixed after training.
  SparseVector VectorizeConst(const std::vector<std::string>& tokens,
                              const Lexicon& lexicon) const;

  /// Vectorizes one document given as the lexicon ids of its tokens, in
  /// any order; sorts `ids` in place. Bit-identical to Vectorize over the
  /// tokens those ids came from: the counts are the same exact integers,
  /// weighted and normalized in the same id order.
  SparseVector VectorizeIds(std::vector<uint32_t>& ids) const;

  const VectorizerOptions& options() const { return options_; }
  std::size_t num_fitted_documents() const { return num_documents_; }

 private:
  double WeightFor(uint32_t id, double tf) const;
  SparseVector Finish(std::vector<SparseVector::Entry> counts) const;

  VectorizerOptions options_;
  std::size_t num_documents_ = 0;
  std::unordered_map<uint32_t, std::size_t> doc_freq_;
};

}  // namespace p2pdt

#endif  // P2PDT_TEXT_VECTORIZER_H_
