// FIG3 — the tagging workflow of the demo UI, as a scripted session:
// File Browser → manual seed tagging → P2P collaborative training →
// "Suggest Tag" with the Confidence slider → "AutoTag" → tag refinement →
// Library search/filter → persistence of tags as file metadata (sidecars).
//
// The P2P back-end is a real CEMPaR protocol run inside the P2PDMT
// simulator: this user's machine is peer 0 of a 32-peer DHT.
//
// Build & run:  ./build/examples/pim_workflow

#include <cstdio>

#include "core/doc_tagger.h"
#include "core/metadata_store.h"
#include "core/tag_query.h"
#include "p2pdmt/experiment.h"
#include "p2pdmt/sim_scorer.h"

using namespace p2pdt;

namespace {

void PrintSuggestions(const std::vector<TagSuggestion>& suggestions,
                      double slider) {
  // The demo UI shows low-confidence tags struck out and last; here they
  // print in brackets after the confident ones.
  std::printf("  suggestion cloud (confidence slider at %.2f):\n", slider);
  for (const TagSuggestion& s : suggestions) {
    if (s.confidence >= slider) {
      std::printf("    %-16s %.2f\n", s.tag.c_str(), s.confidence);
    }
  }
  for (const TagSuggestion& s : suggestions) {
    if (s.confidence < slider) {
      std::printf("    [%-14s %.2f  -- below slider]\n", s.tag.c_str(),
                  s.confidence);
    }
  }
}

}  // namespace

int main() {
  std::printf("=== P2PDocTagger PIM workflow (Fig. 3) ===\n\n");

  // --- The network: 32 peers with their own tagged collections -----------
  CorpusOptions co;
  co.num_users = 32;
  co.min_docs_per_user = 50;
  co.max_docs_per_user = 70;
  co.num_tags = 8;
  co.vocabulary_size = 2000;
  co.seed = 99;
  GeneratedCorpus corpus = std::move(GenerateCorpus(co)).value();
  Preprocessor pre;
  VectorizedCorpus vectorized =
      std::move(VectorizeCorpus(corpus, pre)).value();

  ExperimentOptions opt;
  opt.env.num_peers = 32;
  opt.algorithm = AlgorithmType::kCempar;
  opt.distribution.cls = ClassDistribution::kByUser;
  auto env = std::move(Environment::Create(opt.env)).value();
  auto algo = std::move(MakeClassifier(*env, opt)).value();

  CorpusSplit split = SplitCorpus(vectorized, kTrainFraction, 1);
  auto peers = std::move(DistributeData(split.train, 32, opt.distribution,
                                        &split.train_user))
                   .value();
  algo->Setup(std::move(peers), vectorized.dataset.num_tags()).ToString();
  bool trained = false;
  algo->Train([&](Status s) {
    std::printf("P2P collaborative training finished: %s\n",
                s.ToString().c_str());
    trained = true;
  });
  env->RunUntilFlag(trained, 3600);
  std::printf("network traffic so far:\n%s\n",
              env->net().stats().ToString().c_str());

  // --- This user's DocTagger, backed by the P2P network ------------------
  DocTagger tagger;
  tagger.AttachGlobalScorer(MakeSimScorer(*algo, *env, /*self=*/0),
                            corpus.tag_names);

  // "File Browser": the user selects their documents.
  const auto& my_docs = corpus.user_documents[0];
  for (std::size_t idx : my_docs) {
    tagger.AddDocument(corpus.documents[idx].title,
                       corpus.documents[idx].text);
  }
  std::printf("added %zu documents from the File Browser\n\n",
              tagger.num_documents());

  // "Suggest Tag" on one file, exploring the confidence slider.
  DocId sample = 0;
  Result<std::vector<TagSuggestion>> suggestions =
      tagger.SuggestTags(sample, 0.0);
  if (suggestions.ok()) {
    std::printf("Suggest Tag for '%s':\n",
                corpus.documents[my_docs[sample]].title.c_str());
    PrintSuggestions(suggestions.value(), 0.30);
    std::printf("\n");
    PrintSuggestions(suggestions.value(), 0.70);
  }

  // "AutoTag" everything.
  Result<std::size_t> tagged = tagger.AutoTagAll();
  std::printf("\nAutoTag tagged %zu documents\n",
              tagged.value_or(0));

  // Ground-truth check.
  std::size_t correct = 0, total = 0;
  for (std::size_t i = 0; i < my_docs.size(); ++i) {
    const Document& doc = *tagger.GetDocument(i).value();
    const RawDocument& raw = corpus.documents[my_docs[i]];
    for (const TagAssignment& a : doc.tags) {
      ++total;
      for (const std::string& t : raw.tags) {
        if (a.tag == t) {
          ++correct;
          break;
        }
      }
    }
  }
  std::printf("auto-tag precision vs ground truth: %.1f%% (%zu/%zu)\n\n",
              total ? 100.0 * correct / total : 0.0, correct, total);

  // Tag refinement: the user fixes one document's tags by hand; the local
  // model adapts.
  std::printf("refining tags on doc 1 to its true set...\n");
  tagger.Refine(1, corpus.documents[my_docs[1]].tags).ToString();

  // Library browsing: search and filter by tags (AND / OR).
  auto counts = tagger.library().TagCounts();
  std::printf("\nLibrary: %zu tags over %zu documents\n",
              tagger.library().num_tags(), tagger.library().num_documents());
  if (counts.size() >= 2) {
    const std::string& a = counts[0].first;
    const std::string& b = counts[1].first;
    std::printf("  docs tagged '%s': %zu\n", a.c_str(),
                tagger.library().WithTag(a).size());
    std::printf("  docs tagged '%s' AND '%s': %zu\n", a.c_str(), b.c_str(),
                tagger.library().WithAllTags({a, b}).size());
    std::printf("  docs tagged '%s' OR  '%s': %zu\n", a.c_str(), b.c_str(),
                tagger.library().WithAnyTag({a, b}).size());
    // Boolean query language for richer filtering.
    std::string q = a + " AND NOT " + b;
    Result<TagQuery> query = TagQuery::Parse(q);
    if (query.ok()) {
      std::printf("  query \"%s\": %zu docs\n", q.c_str(),
                  query->Evaluate(tagger.library()).size());
    }
  }

  // Persist tags as file metadata (sidecars) so other PIM tools see them.
  MetadataStore store("pim_metadata");
  std::size_t persisted = 0;
  for (DocId id = 0; id < tagger.num_documents(); ++id) {
    const Document& doc = *tagger.GetDocument(id).value();
    if (!doc.tags.empty() && store.Save(doc).ok()) ++persisted;
  }
  std::printf("\npersisted tag metadata for %zu documents under "
              "pim_metadata/\n",
              persisted);
  std::printf("\nworkflow complete.\n");
  return 0;
}
