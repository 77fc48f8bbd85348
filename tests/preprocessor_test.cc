#include "text/preprocessor.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace p2pdt {
namespace {

TEST(PreprocessorTest, AnalyzeRunsFullTokenPipeline) {
  Preprocessor p;
  // "The" is a stop word; "connected" stems to "connect".
  std::vector<std::string> tokens =
      p.Analyze("The systems were connected yesterday.");
  EXPECT_EQ(tokens,
            (std::vector<std::string>{"system", "connect", "yesterdai"}));
}

TEST(PreprocessorTest, SensitiveWordsNeverReachVectors) {
  PreprocessorOptions opt;
  opt.sensitive_words = {"SecretProject"};  // matched case-insensitively
  {
    Preprocessor p(opt);
    std::vector<std::string> tokens =
        p.Analyze("budget for secretproject launch");
    for (const auto& t : tokens) {
      EXPECT_NE(t, "secretproject");
    }
    EXPECT_EQ(tokens.size(), 2u);  // budget, launch
  }

  // The second text repeats the word in other cases, so Process meets it
  // again as a memo hit, and ProcessAll meets it in every worker.
  const std::vector<std::string_view> texts = {
      "budget for secretproject launch",
      "SecretProject launch, SECRETPROJECT budget secretproject"};
  const uint32_t width = 1u << 18;
  const uint32_t secret_id = Lexicon::HashWord("secretproject") % width;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::SetGlobalConcurrency(threads);
    for (uint32_t dims : {width, 0u}) {
      opt.hashed_dimensions = dims;
      Preprocessor serial(opt), batch(opt);
      std::vector<SparseVector> vectors;
      for (std::string_view text : texts) {
        vectors.push_back(serial.Process(text));
      }
      for (SparseVector& v : batch.ProcessAll(texts)) {
        vectors.push_back(std::move(v));
      }
      for (const Preprocessor* p : {&serial, &batch}) {
        const Lexicon& lex = p->lexicon();
        EXPECT_EQ(lex.size(), 2u);  // budget, launch
        if (dims > 0) {
          EXPECT_FALSE(lex.GetWord(secret_id).ok());
        } else {
          EXPECT_FALSE(lex.GetId("secretproject").ok());
        }
      }
      for (const SparseVector& v : vectors) {
        EXPECT_EQ(v.nnz(), 2u);
        if (dims > 0) EXPECT_EQ(v.Get(secret_id), 0.0);
      }
    }
  }
  ThreadPool::SetGlobalConcurrency(0);
}

TEST(PreprocessorTest, InflectedFormsShareFeatureIds) {
  Preprocessor p;
  SparseVector a = p.Process("connecting connections");
  // Both tokens stem to "connect" -> a single feature with weight from two
  // occurrences, L2-normalized to 1.
  EXPECT_EQ(a.nnz(), 1u);
}

TEST(PreprocessorTest, ProcessConstDoesNotGrowGrowingLexicon) {
  PreprocessorOptions opt;
  opt.hashed_dimensions = 0;  // growing mode
  Preprocessor p(opt);
  p.Process("alpha beta");
  std::size_t size_before = p.lexicon().size();
  SparseVector v = p.ProcessConst("alpha gamma");
  EXPECT_EQ(p.lexicon().size(), size_before);
  EXPECT_EQ(v.nnz(), 1u);  // only "alpha" is known
}

TEST(PreprocessorTest, HashedPeersProduceCompatibleVectors) {
  // Two peers with default (hashed) settings vectorize the same text to
  // identical vectors without sharing any state.
  Preprocessor peer1, peer2;
  SparseVector a = peer1.Process("distributed tagging systems");
  SparseVector b = peer2.Process("distributed tagging systems");
  EXPECT_EQ(a, b);
}

TEST(PreprocessorTest, VectorsAreUnitNorm) {
  Preprocessor p;
  SparseVector v = p.Process("some words for testing vectors here");
  EXPECT_NEAR(v.Norm(), 1.0, 1e-12);
}

TEST(PreprocessorTest, EmptyTextGivesEmptyVector) {
  Preprocessor p;
  EXPECT_TRUE(p.Process("").empty());
  EXPECT_TRUE(p.Process("the and of").empty());  // all stop words
}

}  // namespace
}  // namespace p2pdt
