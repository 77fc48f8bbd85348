#include "text/preprocessor.h"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.h"

namespace p2pdt {

namespace {

/// Documents a ProcessAll task claims at a time: small, so one slow core
/// does not hold the tail of the corpus.
constexpr std::size_t kDocsPerClaim = 32;

}  // namespace

Preprocessor::Preprocessor(Options options)
    : options_(options),
      vectorizer_(options.vectorizer),
      lexicon_(options.hashed_dimensions > 0
                   ? Lexicon::Hashed(options.hashed_dimensions)
                   : Lexicon()) {
  stop_words_.AddSensitiveWords(options.sensitive_words);
}

std::vector<std::string> Preprocessor::Analyze(std::string_view text) const {
  std::vector<std::string> tokens = tokenizer_.Tokenize(text);
  tokens = stop_words_.Filter(tokens);
  stemmer_.StemAll(tokens);
  // Stemming can only shorten words, but a stem could collide with a stop
  // word ("doe" etc.) — the reference pipelines do not re-filter, and
  // neither do we.
  return tokens;
}

template <typename Resolve>
void Preprocessor::CollectIds(std::string_view text, TokenMemo& memo,
                              std::vector<uint32_t>& ids,
                              Resolve&& resolve) const {
  tokenizer_.ForEachToken(text, [&](std::string_view token) {
    auto it = memo.find(token);
    if (it == memo.end()) {
      std::optional<uint32_t> id;
      if (!stop_words_.IsFiltered(token)) id = resolve(stemmer_.Stem(token));
      it = memo.emplace(token, id).first;
    }
    if (it->second) ids.push_back(*it->second);
  });
}

SparseVector Preprocessor::Process(std::string_view text) {
  std::vector<uint32_t> ids;
  CollectIds(text, memo_, ids, [this](const std::string& stem) {
    return lexicon_.GetOrAddId(stem);
  });
  return vectorizer_.VectorizeIds(ids);
}

std::vector<SparseVector> Preprocessor::ProcessAll(
    const std::vector<std::string_view>& texts) {
  std::vector<SparseVector> out(texts.size());
  if (!lexicon_.hashed()) {
    for (std::size_t d = 0; d < texts.size(); ++d) out[d] = Process(texts[d]);
    return out;
  }
  // Each task keeps its own memo and claims documents in increasing order,
  // so a stem's first occurrence in the corpus is a memo miss of whichever
  // task ran that document, and lands in first_seen[d]. Replaying
  // first_seen in document order then inserts every stem in the order a
  // serial run would, whatever the schedule.
  std::vector<std::vector<std::string>> first_seen(texts.size());
  std::atomic<std::size_t> next{0};
  const std::size_t tasks = ThreadPool::GlobalConcurrency();
  ParallelFor(0, tasks, 1, [&](std::size_t, std::size_t) {
    TokenMemo memo;
    std::vector<uint32_t> ids;
    for (;;) {
      const std::size_t lo = next.fetch_add(kDocsPerClaim);
      if (lo >= texts.size()) return;
      const std::size_t hi = std::min(texts.size(), lo + kDocsPerClaim);
      for (std::size_t d = lo; d < hi; ++d) {
        ids.clear();
        CollectIds(texts[d], memo, ids, [&](std::string stem) {
          const uint32_t id = lexicon_.GetId(stem).value();
          first_seen[d].push_back(std::move(stem));
          return id;
        });
        out[d] = vectorizer_.VectorizeIds(ids);
      }
    }
  });
  for (const std::vector<std::string>& stems : first_seen) {
    for (const std::string& stem : stems) lexicon_.GetOrAddId(stem);
  }
  return out;
}

SparseVector Preprocessor::ProcessConst(std::string_view text) const {
  return vectorizer_.VectorizeConst(Analyze(text), lexicon_);
}

}  // namespace p2pdt
