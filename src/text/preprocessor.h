#ifndef P2PDT_TEXT_PREPROCESSOR_H_
#define P2PDT_TEXT_PREPROCESSOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sparse_vector.h"
#include "text/lexicon.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "text/vectorizer.h"

namespace p2pdt {

/// The complete Document Preprocessing stage of Fig. 1, as one component:
///
///   raw text → tokenize → stop-word & sensitive-word filter
///            → Porter stem → sparse TF vector over a shared lexicon.
///
/// One `Preprocessor` is owned per peer; with a hashed lexicon all peers
/// produce id-compatible vectors without exchanging vocabulary state.
struct PreprocessorOptions {
  VectorizerOptions vectorizer;
  /// When > 0 the lexicon uses the hashing trick with this many
  /// dimensions; when 0 ids grow densely in first-seen order.
  uint32_t hashed_dimensions = 1 << 18;
  /// User-specified sensitive words removed before anything leaves the
  /// machine (paper Sec. 2).
  std::vector<std::string> sensitive_words;
};

class Preprocessor {
 public:
  using Options = PreprocessorOptions;

  explicit Preprocessor(Options options = Options());

  /// Runs the token pipeline only (no vectorization): tokenize, filter,
  /// stem. Useful for inspection and for IDF fitting. Analyze followed by
  /// Vectorizer::Vectorize is the reference Process must match bit for bit.
  std::vector<std::string> Analyze(std::string_view text) const;

  /// Full pipeline: raw text to sparse vector, growing the lexicon. Filter,
  /// stemmer and lexicon run once per distinct surface form (see memo_).
  SparseVector Process(std::string_view text);

  /// Process over texts[0..n) in order: the same vectors and the same final
  /// lexicon, hash collisions included. With a hashed lexicon the documents
  /// fan out over ThreadPool::Global(), and the stems each document saw
  /// first are committed to the lexicon in document order afterwards. A
  /// growing lexicon assigns ids in first-seen order, so it runs serially.
  std::vector<SparseVector> ProcessAll(
      const std::vector<std::string_view>& texts);

  /// Full pipeline against the frozen lexicon (test-time path).
  SparseVector ProcessConst(std::string_view text) const;

  const Lexicon& lexicon() const { return lexicon_; }
  const Tokenizer& tokenizer() const { return tokenizer_; }

 private:
  struct ViewHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  /// Surface form → its lexicon id, or nullopt when the filter drops it.
  /// Sound only because nothing can change the filter or the lexicon
  /// behind it: both are reachable only through this class, read-only.
  using TokenMemo = std::unordered_map<std::string, std::optional<uint32_t>,
                                       ViewHash, std::equal_to<>>;

  /// Appends the lexicon id of each surviving token of `text` to `ids`.
  /// A surface form missing from `memo` is filtered and stemmed once, and
  /// `resolve(std::string stem)` gives its id.
  template <typename Resolve>
  void CollectIds(std::string_view text, TokenMemo& memo,
                  std::vector<uint32_t>& ids, Resolve&& resolve) const;

  Options options_;
  Tokenizer tokenizer_;
  StopWordFilter stop_words_;
  PorterStemmer stemmer_;
  Vectorizer vectorizer_;
  Lexicon lexicon_;
  TokenMemo memo_;
};

}  // namespace p2pdt

#endif  // P2PDT_TEXT_PREPROCESSOR_H_
