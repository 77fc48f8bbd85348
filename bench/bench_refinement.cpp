// CLAIM5 — Tag Refinement (paper Sec. 2): "users can use the tagging
// interface to modify the assigned tags ... P2PDocTagger will automatically
// update the classification model(s) in the back-end, to adapt to their
// personal preference for future tagging."
//
// Protocol: a user whose personal tagging convention *disagrees* with the
// global model on one tag (they use a personal tag for one topic) corrects
// a stream of documents; after each batch of corrections we measure
// accuracy-w.r.t.-the-user on held-out documents. Expected shape: personal
// accuracy climbs with corrections while the untouched tags keep their
// global accuracy.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/doc_tagger.h"
#include "p2pdmt/sim_scorer.h"

using namespace p2pdt_bench;

int main() {
  std::printf("=== CLAIM5: tag refinement personalizes the model ===\n\n");

  // A corpus and a trained CEMPaR backend.
  CorpusOptions co;
  co.num_users = 24;
  co.min_docs_per_user = 50;
  co.max_docs_per_user = 70;
  co.num_tags = 8;
  co.vocabulary_size = 2000;
  co.seed = 77;
  GeneratedCorpus corpus = std::move(GenerateCorpus(co)).value();
  Preprocessor pre;
  VectorizedCorpus vectorized =
      std::move(VectorizeCorpus(corpus, pre)).value();

  ExperimentOptions opt = MacroDefaults(AlgorithmType::kCempar, 24);
  auto env = std::move(Environment::Create(opt.env)).value();
  auto algo = std::move(MakeClassifier(*env, opt)).value();
  CorpusSplit split = SplitCorpus(vectorized, kTrainFraction, 9);
  auto peers = std::move(DistributeData(split.train, 24, opt.distribution,
                                        &split.train_user))
                   .value();
  if (!algo->Setup(std::move(peers), vectorized.dataset.num_tags()).ok()) {
    return 1;
  }
  bool trained = false;
  algo->Train([&](Status) { trained = true; });
  env->RunUntilFlag(trained, 3600);

  // The user's personal convention: whenever the global model would say
  // tag 0, the user wants their own tag "personal" instead.
  const std::string personal_tag = "personal";
  const std::string global_tag0 = corpus.tag_names[0];

  DocTagger tagger;
  tagger.AttachGlobalScorer(MakeSimScorer(*algo, *env, 2),
                            corpus.tag_names);

  // Documents whose ground truth includes tag 0, owned by user 2.
  std::vector<const RawDocument*> tag0_docs;
  for (const RawDocument& doc : corpus.documents) {
    for (const std::string& t : doc.tags) {
      if (t == global_tag0) {
        tag0_docs.push_back(&doc);
        break;
      }
    }
  }
  std::printf("documents carrying the retagged topic: %zu\n\n",
              tag0_docs.size());
  if (tag0_docs.size() < 40) {
    std::fprintf(stderr, "corpus too small for the refinement protocol\n");
    return 1;
  }

  // Split them: a correction stream and a held-out evaluation set.
  std::size_t train_n = tag0_docs.size() / 2;
  auto evaluate = [&](DocTagger& t) {
    // Fraction of held-out docs where suggestions (threshold 0.5) include
    // the personal tag.
    std::size_t hit = 0, total = 0;
    for (std::size_t i = train_n; i < tag0_docs.size(); ++i) {
      DocId id = t.AddDocument("eval", tag0_docs[i]->text);
      Result<std::vector<TagSuggestion>> sug = t.SuggestTags(id, 0.5);
      if (!sug.ok()) continue;
      ++total;
      for (const TagSuggestion& s : sug.value()) {
        if (s.tag == personal_tag) {
          ++hit;
          break;
        }
      }
    }
    return total ? static_cast<double>(hit) / total : 0.0;
  };

  CsvWriter csv({"corrections", "personal_tag_recall"});
  std::printf("%12s %22s\n", "corrections", "personal-tag recall");
  std::size_t applied = 0;
  for (std::size_t batch : {0u, 4u, 8u, 16u, 32u}) {
    while (applied < batch && applied < train_n) {
      DocId id = tagger.AddDocument("corr", tag0_docs[applied]->text);
      tagger.AutoTag(id).status();
      tagger.Refine(id, {personal_tag}).ToString();
      // Keep the local model fresh from all manual tags so far.
      tagger.TrainLocal().ToString();
      ++applied;
    }
    double recall = evaluate(tagger);
    std::printf("%12zu %22.3f\n", applied, recall);
    csv.AddNumericRow({static_cast<double>(applied), recall});
  }
  WriteResults(csv, "claim5_refinement.csv");
  return 0;
}
