// CLAIM3 — document preprocessing throughput (paper Sec. 2, "Document
// preprocessing"): tokenizer, stop-word filter, Porter stemmer, vectorizer
// and the assembled pipeline, on realistic generated documents, plus a
// whole corpus through VectorizeCorpus at 1 and 4 threads.

#include <benchmark/benchmark.h>

#include "common/thread_pool.h"
#include "corpus/generator.h"
#include "corpus/vectorize.h"
#include "text/preprocessor.h"

namespace {

using namespace p2pdt;

const std::vector<std::string>& SampleTexts() {
  static const std::vector<std::string> texts = [] {
    CorpusOptions opt;
    opt.num_users = 4;
    opt.min_docs_per_user = 64;
    opt.max_docs_per_user = 64;
    opt.vocabulary_size = 2000;
    opt.seed = 5;
    GeneratedCorpus corpus = std::move(GenerateCorpus(opt)).value();
    std::vector<std::string> out;
    for (const auto& doc : corpus.documents) out.push_back(doc.text);
    return out;
  }();
  return texts;
}

void BM_Tokenize(benchmark::State& state) {
  Tokenizer tokenizer;
  const auto& texts = SampleTexts();
  std::size_t i = 0, bytes = 0;
  for (auto _ : state) {
    const std::string& text = texts[i++ % texts.size()];
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
    bytes += text.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Tokenize);

void BM_StopWordFilter(benchmark::State& state) {
  Tokenizer tokenizer;
  StopWordFilter filter;
  std::vector<std::vector<std::string>> token_lists;
  for (const auto& text : SampleTexts()) {
    token_lists.push_back(tokenizer.Tokenize(text));
  }
  std::size_t i = 0, tokens = 0;
  for (auto _ : state) {
    const auto& list = token_lists[i++ % token_lists.size()];
    benchmark::DoNotOptimize(filter.Filter(list));
    tokens += list.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(tokens));
}
BENCHMARK(BM_StopWordFilter);

void BM_PorterStem(benchmark::State& state) {
  Tokenizer tokenizer;
  PorterStemmer stemmer;
  std::vector<std::string> words;
  for (const auto& text : SampleTexts()) {
    for (auto& t : tokenizer.Tokenize(text)) words.push_back(std::move(t));
    if (words.size() > 20000) break;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stemmer.Stem(words[i++ % words.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PorterStem);

void BM_VectorizeHashed(benchmark::State& state) {
  PreprocessorOptions opt;
  Preprocessor pre(opt);
  const auto& texts = SampleTexts();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pre.Process(texts[i++ % texts.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VectorizeHashed);

void BM_FullPipelinePerDocument(benchmark::State& state) {
  Preprocessor pre;
  const auto& texts = SampleTexts();
  std::size_t i = 0, bytes = 0;
  for (auto _ : state) {
    const std::string& text = texts[i++ % texts.size()];
    benchmark::DoNotOptimize(pre.Process(text));
    bytes += text.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullPipelinePerDocument);

void BM_PipelineGrowingVsHashedLexicon(benchmark::State& state) {
  PreprocessorOptions opt;
  opt.hashed_dimensions = state.range(0) ? (1u << 18) : 0;
  const auto& texts = SampleTexts();
  for (auto _ : state) {
    state.PauseTiming();
    Preprocessor pre(opt);  // fresh lexicon per run
    state.ResumeTiming();
    for (const auto& text : texts) {
      benchmark::DoNotOptimize(pre.Process(text));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(texts.size()));
}
BENCHMARK(BM_PipelineGrowingVsHashedLexicon)->Arg(0)->Arg(1);

// The whole setup path of servebench's corpus at a quarter of its users:
// VectorizeCorpus with a fresh Preprocessor per iteration, at a global
// concurrency of state.range(0) threads (1 runs inline).
void BM_VectorizeCorpus(benchmark::State& state) {
  static const GeneratedCorpus corpus = [] {
    CorpusOptions opt;
    opt.num_users = 64;
    opt.min_docs_per_user = 50;
    opt.max_docs_per_user = 80;
    opt.num_tags = 12;
    opt.vocabulary_size = 3000;
    opt.seed = 20100913;
    return std::move(GenerateCorpus(opt)).value();
  }();
  ThreadPool::SetGlobalConcurrency(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Preprocessor pre;
    benchmark::DoNotOptimize(VectorizeCorpus(corpus, pre));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(corpus.documents.size()));
  ThreadPool::SetGlobalConcurrency(0);
}
BENCHMARK(BM_VectorizeCorpus)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
