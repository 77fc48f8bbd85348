// Text pipeline oracle: the memoized one-pass Preprocessor::Process and the
// document-parallel ProcessAll / VectorizeCorpus / VectorizeStream against
// the reference pipeline (Analyze, then Vectorizer::Vectorize over its own
// lexicon). Vectors must match bit for bit — ids and value bits — and so
// must the final lexicon: its size and the word behind every id, which in
// a hashed lexicon depends on which colliding stem was seen first.

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "common/thread_pool.h"
#include "corpus/generator.h"
#include "corpus/vectorize.h"
#include "text/preprocessor.h"

namespace p2pdt {
namespace {

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

::testing::AssertionResult SameVector(const SparseVector& want,
                                      const SparseVector& got) {
  if (want.nnz() != got.nnz()) {
    return ::testing::AssertionFailure()
           << "nnz " << got.nnz() << " != reference " << want.nnz();
  }
  for (std::size_t i = 0; i < want.nnz(); ++i) {
    const auto& [wid, wv] = want.entries()[i];
    const auto& [gid, gv] = got.entries()[i];
    if (wid != gid || Bits(wv) != Bits(gv)) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": (" << gid << ", " << gv
             << ") != reference (" << wid << ", " << wv << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

void ExpectSameLexicon(const Lexicon& want, const Lexicon& got) {
  ASSERT_EQ(want.size(), got.size());
  ASSERT_EQ(want.dimension_bound(), got.dimension_bound());
  for (uint32_t id = 0; id < want.dimension_bound(); ++id) {
    Result<std::string> w = want.GetWord(id);
    Result<std::string> g = got.GetWord(id);
    ASSERT_EQ(w.ok(), g.ok()) << "id " << id;
    if (w.ok()) ASSERT_EQ(w.value(), g.value()) << "id " << id;
  }
}

/// The reference: Analyze, then Vectorizer::Vectorize, token by token, over
/// a lexicon the Preprocessor under test never touches.
struct Reference {
  std::vector<SparseVector> vectors;
  Lexicon lexicon;
};

Reference RunReference(const PreprocessorOptions& options,
                       const std::vector<std::string_view>& texts) {
  Preprocessor analyzer(options);
  Vectorizer vectorizer(options.vectorizer);
  Reference ref;
  ref.lexicon = options.hashed_dimensions > 0
                    ? Lexicon::Hashed(options.hashed_dimensions)
                    : Lexicon();
  for (std::string_view text : texts) {
    ref.vectors.push_back(
        vectorizer.Vectorize(analyzer.Analyze(text), ref.lexicon));
  }
  return ref;
}

/// Hand-written edge cases: capitals, digits, apostrophes, bytes >= 0x80,
/// tokens of 40 and 41 characters, sensitive words in several cases, stop
/// words only, punctuation only, the empty text, and repeats (memo hits).
std::vector<std::string> EdgeTexts() {
  const std::string forty(40, 'k');
  const std::string forty_one(41, 'q');
  return {
      "The QUICK brown fox's Connections were CONNECTED; connecting!",
      "WIN32 b2b 2010 x86_64 don't can't rock'n'roll 'quoted' trail'",
      "caf\xC3\xA9 na\xC3\xAFve r\xC3\xA9sum\xC3\xA9 \xFF\x80tail \x80",
      forty + " " + forty_one + " " + forty + "s mid" + forty_one + "end",
      "budget SecretProject secretproject SECRETPROJECT launch",
      "the and of to a an",
      "... !!! --- ''' ,,,",
      "",
      "connected connections connecting connect relational relate",
      "budget budget budget launch secretproject hopeful hopefulness",
  };
}

/// A small generated corpus plus the edge texts, interleaved so that edge
/// cases land in different claim chunks.
std::vector<std::string> OracleTexts() {
  CorpusOptions opt;
  opt.num_users = 8;
  opt.min_docs_per_user = 12;
  opt.max_docs_per_user = 24;
  opt.num_tags = 6;
  opt.vocabulary_size = 600;
  opt.seed = 42;
  GeneratedCorpus corpus = std::move(GenerateCorpus(opt)).value();
  std::vector<std::string> edge = EdgeTexts();
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < corpus.documents.size(); ++i) {
    texts.push_back(corpus.documents[i].text);
    if (i % 17 == 0) texts.push_back(edge[(i / 17) % edge.size()]);
  }
  for (const std::string& e : edge) texts.push_back(e);
  return texts;
}

std::vector<std::string_view> Views(const std::vector<std::string>& texts) {
  return std::vector<std::string_view>(texts.begin(), texts.end());
}

class ConcurrencyTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { ThreadPool::SetGlobalConcurrency(GetParam()); }
  void TearDown() override { ThreadPool::SetGlobalConcurrency(0); }
};

/// Lexicon shapes: hashed at the default width, hashed narrow enough that
/// stems collide (so the reversible word of an id depends on first-seen
/// order), and growing.
std::vector<uint32_t> LexiconWidths() { return {1u << 18, 61u, 0u}; }

std::vector<PreprocessorOptions> OracleOptions() {
  std::vector<PreprocessorOptions> out;
  for (uint32_t width : LexiconWidths()) {
    for (TermWeighting w :
         {TermWeighting::kTermFrequency, TermWeighting::kLogTermFrequency,
          TermWeighting::kTfIdf, TermWeighting::kBinary}) {
      for (bool normalize : {true, false}) {
        PreprocessorOptions opt;
        opt.hashed_dimensions = width;
        opt.vectorizer.weighting = w;
        opt.vectorizer.l2_normalize = normalize;
        opt.sensitive_words = {"SecretProject", "budget"};
        out.push_back(opt);
      }
    }
  }
  return out;
}

TEST_P(ConcurrencyTest, ProcessAndProcessAllMatchReference) {
  const std::vector<std::string> owned = OracleTexts();
  const std::vector<std::string_view> texts = Views(owned);
  for (const PreprocessorOptions& opt : OracleOptions()) {
    SCOPED_TRACE(::testing::Message()
                 << "width " << opt.hashed_dimensions << " weighting "
                 << static_cast<int>(opt.vectorizer.weighting) << " l2 "
                 << opt.vectorizer.l2_normalize);
    const Reference ref = RunReference(opt, texts);
    // The lexicon does not depend on the weighting; sweeping a 2^18-id
    // lexicon once per width keeps the test fast under the sanitizers.
    const bool check_lexicon =
        opt.vectorizer.weighting == TermWeighting::kTermFrequency &&
        opt.vectorizer.l2_normalize;

    Preprocessor serial(opt);
    for (std::size_t d = 0; d < texts.size(); ++d) {
      ASSERT_TRUE(SameVector(ref.vectors[d], serial.Process(texts[d])))
          << "Process, doc " << d;
    }
    if (check_lexicon) ExpectSameLexicon(ref.lexicon, serial.lexicon());

    Preprocessor batch(opt);
    const std::vector<SparseVector> all = batch.ProcessAll(texts);
    ASSERT_EQ(all.size(), texts.size());
    for (std::size_t d = 0; d < texts.size(); ++d) {
      ASSERT_TRUE(SameVector(ref.vectors[d], all[d]))
          << "ProcessAll, doc " << d;
    }
    if (check_lexicon) ExpectSameLexicon(ref.lexicon, batch.lexicon());

    // A second batch through the same Preprocessor starts from a lexicon
    // that already holds stems; it must still equal the reference run on
    // both batches in order.
    std::vector<std::string_view> twice = texts;
    twice.insert(twice.end(), texts.rbegin(), texts.rend());
    const Reference ref2 = RunReference(opt, twice);
    const std::vector<std::string_view> reversed(texts.rbegin(),
                                                 texts.rend());
    const std::vector<SparseVector> again = batch.ProcessAll(reversed);
    for (std::size_t d = 0; d < reversed.size(); ++d) {
      ASSERT_TRUE(SameVector(ref2.vectors[texts.size() + d], again[d]))
          << "second ProcessAll, doc " << d;
    }
    if (check_lexicon) ExpectSameLexicon(ref2.lexicon, batch.lexicon());
  }
}

TEST_P(ConcurrencyTest, VectorizeCorpusAndStreamMatchReference) {
  CorpusOptions copt;
  copt.num_users = 16;
  copt.min_docs_per_user = 30;
  copt.max_docs_per_user = 50;
  copt.num_tags = 8;
  copt.vocabulary_size = 900;
  copt.seed = 7;
  const GeneratedCorpus corpus = std::move(GenerateCorpus(copt)).value();

  StreamOptions sopt;
  sopt.base = copt;
  sopt.num_epochs = 3;
  sopt.events = {{DriftKind::kVocabularyShift, 1, 1, 1.0, 2}};
  const StreamedCorpus stream = std::move(GenerateStream(sopt)).value();

  for (uint32_t width : LexiconWidths()) {
    SCOPED_TRACE(::testing::Message() << "width " << width);
    PreprocessorOptions opt;
    opt.hashed_dimensions = width;

    std::vector<std::string_view> texts;
    for (const RawDocument& doc : corpus.documents) texts.push_back(doc.text);
    const Reference ref = RunReference(opt, texts);
    Preprocessor pre(opt);
    Result<VectorizedCorpus> vc = VectorizeCorpus(corpus, pre);
    ASSERT_TRUE(vc.ok()) << vc.status().ToString();
    ASSERT_EQ(vc->dataset.size(), texts.size());
    for (std::size_t d = 0; d < texts.size(); ++d) {
      ASSERT_TRUE(SameVector(ref.vectors[d], vc->dataset[d].x)) << "doc " << d;
      ASSERT_EQ(vc->doc_user[d], corpus.documents[d].user);
      ASSERT_EQ(vc->dataset[d].tags.size(), corpus.documents[d].tags.size());
    }
    ExpectSameLexicon(ref.lexicon, pre.lexicon());

    std::vector<std::string_view> stream_texts;
    for (const RawDocument& doc : stream.documents) {
      stream_texts.push_back(doc.text);
    }
    const Reference sref = RunReference(opt, stream_texts);
    Preprocessor spre(opt);
    Result<VectorizedStream> vs = VectorizeStream(stream, spre);
    ASSERT_TRUE(vs.ok()) << vs.status().ToString();
    ASSERT_EQ(vs->corpus.dataset.size(), stream_texts.size());
    EXPECT_EQ(vs->doc_epoch, stream.doc_epoch);
    for (std::size_t d = 0; d < stream_texts.size(); ++d) {
      ASSERT_TRUE(SameVector(sref.vectors[d], vs->corpus.dataset[d].x))
          << "stream doc " << d;
    }
    ExpectSameLexicon(sref.lexicon, spre.lexicon());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ConcurrencyTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}));

/// FNV-1a over every example: owner, tag ids, nnz, then (id, value bits).
uint64_t Fingerprint(const VectorizedCorpus& vc) {
  Fnv64 h;
  for (std::size_t d = 0; d < vc.dataset.size(); ++d) {
    const MultiLabelExample& ex = vc.dataset[d];
    h.Mix(uint64_t{vc.doc_user[d]});
    for (TagId t : ex.tags) h.Mix(uint64_t{t});
    h.Mix(uint64_t{ex.x.nnz()});
    for (const auto& [id, w] : ex.x.entries()) {
      h.Mix(uint64_t{id});
      h.MixDouble(w);
    }
  }
  return h.state;
}

// The served benchmark's corpus (p2pdtd's generator settings at 256 users,
// 12 tags, seed 20100913), pinned to the value the token-by-token pipeline
// produced before the memoized, document-parallel one replaced it.
TEST(TextPipelineTest, BenchmarkCorpusFingerprintIsPinned) {
  CorpusOptions opt;
  opt.num_users = 256;
  opt.min_docs_per_user = 50;
  opt.max_docs_per_user = 80;
  opt.num_tags = 12;
  opt.vocabulary_size = 3000;
  opt.seed = 20100913;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::SetGlobalConcurrency(threads);
    Result<GeneratedCorpus> raw = GenerateCorpus(opt);
    ASSERT_TRUE(raw.ok());
    Preprocessor pre;
    Result<VectorizedCorpus> vc = VectorizeCorpus(*raw, pre);
    ASSERT_TRUE(vc.ok());
    EXPECT_EQ(vc->dataset.size(), 16647u);
    EXPECT_EQ(pre.lexicon().size(), 4215u);
    EXPECT_EQ(Fingerprint(*vc), 0xc66c731391d5b541ull) << "threads " << threads;
  }
  ThreadPool::SetGlobalConcurrency(0);
}

}  // namespace
}  // namespace p2pdt
