#include "core/doc_tagger.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

// Tiny two-topic corpus with distinctive vocabulary.
const char* kCookingDocs[] = {
    "Simmer the garlic butter sauce with fresh basil and pasta tonight",
    "Roast the chicken with rosemary garlic and lemon butter glaze",
    "Knead the dough and bake crusty sourdough bread with flour",
    "Whisk eggs with cream for a fluffy omelette breakfast recipe",
};
const char* kNetworkDocs[] = {
    "Routing packets across the overlay network with latency bounds",
    "Distributed hash tables route lookup queries between peers",
    "Bandwidth and churn define peer network reliability metrics",
    "Gossip protocols broadcast updates across distributed peers",
};

DocTagger SeededTagger() {
  DocTagger tagger;
  for (const char* text : kCookingDocs) tagger.AddDocument("cook", text);
  for (const char* text : kNetworkDocs) tagger.AddDocument("net", text);
  for (DocId id = 0; id < 4; ++id) {
    EXPECT_TRUE(tagger.ManualTag(id, {"cooking"}).ok());
  }
  for (DocId id = 4; id < 8; ++id) {
    EXPECT_TRUE(tagger.ManualTag(id, {"networking"}).ok());
  }
  return tagger;
}

TEST(DocTaggerTest, AddAndGetDocuments) {
  DocTagger tagger;
  DocId id = tagger.AddDocument("title", "Some document text here");
  EXPECT_EQ(id, 0u);
  Result<const Document*> doc = tagger.GetDocument(id);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ((*doc)->title, "title");
  EXPECT_FALSE((*doc)->vector.empty());
  EXPECT_FALSE(tagger.GetDocument(99).ok());
}

TEST(DocTaggerTest, ManualTagValidation) {
  DocTagger tagger;
  DocId id = tagger.AddDocument("t", "words in here");
  EXPECT_EQ(tagger.ManualTag(99, {"x"}).code(), StatusCode::kNotFound);
  EXPECT_EQ(tagger.ManualTag(id, {}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tagger.ManualTag(id, {""}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(tagger.ManualTag(id, {"valid"}).ok());
  EXPECT_EQ(tagger.library().num_documents(), 1u);
}

TEST(DocTaggerTest, UntaggedDocumentsListed) {
  DocTagger tagger = SeededTagger();
  DocId extra = tagger.AddDocument("x", "garlic pasta sauce dinner");
  std::vector<DocId> untagged = tagger.UntaggedDocuments();
  EXPECT_EQ(untagged, (std::vector<DocId>{extra}));
}

TEST(DocTaggerTest, TrainRequiresTaggedDocs) {
  DocTagger tagger;
  tagger.AddDocument("t", "words");
  EXPECT_EQ(tagger.TrainLocal().code(), StatusCode::kFailedPrecondition);
}

TEST(DocTaggerTest, SuggestRequiresModel) {
  DocTagger tagger;
  DocId id = tagger.AddDocument("t", "words");
  EXPECT_EQ(tagger.SuggestTags(id).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(tagger.AutoTag(id).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DocTaggerTest, TrainSuggestAndAutoTag) {
  DocTagger tagger = SeededTagger();
  ASSERT_TRUE(tagger.TrainLocal().ok());
  EXPECT_TRUE(tagger.has_local_model());

  DocId cooking_doc =
      tagger.AddDocument("new", "Garlic butter sauce with pasta and basil");
  Result<std::vector<TagSuggestion>> suggestions =
      tagger.SuggestTags(cooking_doc);
  ASSERT_TRUE(suggestions.ok());
  // Suggestions are alphabetical; find the confident one.
  double cooking_conf = 0, networking_conf = 0;
  for (const TagSuggestion& s : suggestions.value()) {
    if (s.tag == "cooking") cooking_conf = s.confidence;
    if (s.tag == "networking") networking_conf = s.confidence;
  }
  EXPECT_GT(cooking_conf, networking_conf);
  EXPECT_GT(cooking_conf, 0.5);

  Result<std::vector<std::string>> assigned = tagger.AutoTag(cooking_doc);
  ASSERT_TRUE(assigned.ok());
  EXPECT_EQ(assigned.value(), (std::vector<std::string>{"cooking"}));
  const Document& doc = *tagger.GetDocument(cooking_doc).value();
  ASSERT_EQ(doc.tags.size(), 1u);
  EXPECT_EQ(doc.tags[0].source, TagSource::kAuto);
}

TEST(DocTaggerTest, ConfidenceSliderFiltersSuggestions) {
  DocTagger tagger = SeededTagger();
  ASSERT_TRUE(tagger.TrainLocal().ok());
  DocId id = tagger.AddDocument("n", "routing lookup peers overlay");
  std::size_t all =
      tagger.SuggestTags(id, 0.0).value().size();
  std::size_t confident =
      tagger.SuggestTags(id, 0.6).value().size();
  EXPECT_GE(all, confident);
  EXPECT_GE(confident, 1u);
}

TEST(DocTaggerTest, AutoTagAllTagsEverythingTaggable) {
  DocTagger tagger = SeededTagger();
  ASSERT_TRUE(tagger.TrainLocal().ok());
  tagger.AddDocument("a", "bake bread dough with flour and butter");
  tagger.AddDocument("b", "peers route packets across the network");
  Result<std::size_t> tagged = tagger.AutoTagAll();
  ASSERT_TRUE(tagged.ok());
  EXPECT_EQ(tagged.value(), 2u);
  EXPECT_TRUE(tagger.UntaggedDocuments().empty());
}

TEST(DocTaggerTest, AutoTagPreservesManualTags) {
  DocTagger tagger = SeededTagger();
  ASSERT_TRUE(tagger.TrainLocal().ok());
  DocId id = tagger.AddDocument("m", "garlic pasta sauce");
  ASSERT_TRUE(tagger.ManualTag(id, {"keepme"}).ok());
  ASSERT_TRUE(tagger.AutoTag(id).ok());
  const Document& doc = *tagger.GetDocument(id).value();
  EXPECT_TRUE(doc.HasTag("keepme"));
}

TEST(DocTaggerTest, RefineUpdatesModelAndTags) {
  DocTagger tagger = SeededTagger();
  ASSERT_TRUE(tagger.TrainLocal().ok());
  DocId id = tagger.AddDocument(
      "fusion", "Garlic pasta recipes shared across peer networks");
  ASSERT_TRUE(tagger.AutoTag(id).ok());

  // The user corrects the tags; repeated corrections shift suggestions.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(tagger.Refine(id, {"networking"}).ok());
  }
  const Document& doc = *tagger.GetDocument(id).value();
  EXPECT_EQ(doc.TagNames(), (std::vector<std::string>{"networking"}));

  double cooking_conf = 0, networking_conf = 0;
  Result<std::vector<TagSuggestion>> refined_suggestions =
      tagger.SuggestTags(id);
  ASSERT_TRUE(refined_suggestions.ok());
  for (const TagSuggestion& s : refined_suggestions.value()) {
    if (s.tag == "cooking") cooking_conf = s.confidence;
    if (s.tag == "networking") networking_conf = s.confidence;
  }
  EXPECT_GT(networking_conf, cooking_conf);
}

TEST(DocTaggerTest, RefineRegistersNewTags) {
  DocTagger tagger = SeededTagger();
  DocId id = 0;
  ASSERT_TRUE(tagger.Refine(id, {"brand-new-tag"}).ok());
  EXPECT_NE(std::find(tagger.tag_names().begin(), tagger.tag_names().end(),
                      "brand-new-tag"),
            tagger.tag_names().end());
}

TEST(DocTaggerTest, GlobalScorerDrivesSuggestions) {
  DocTagger tagger;
  DocId id = tagger.AddDocument("t", "whatever words inside");
  // Global model says: tag "remote" positive, "other" negative.
  tagger.AttachGlobalScorer(
      [](const SparseVector&) {
        return std::vector<double>{2.0, -2.0};
      },
      {"remote", "other"});
  EXPECT_TRUE(tagger.has_global_scorer());
  Result<std::vector<std::string>> assigned = tagger.AutoTag(id);
  ASSERT_TRUE(assigned.ok());
  EXPECT_EQ(assigned.value(), (std::vector<std::string>{"remote"}));
}

TEST(DocTaggerTest, GlobalAndLocalScoresBlend) {
  DocTagger tagger;
  for (const char* text : kCookingDocs) tagger.AddDocument("c", text);
  for (DocId id = 0; id < 4; ++id) {
    ASSERT_TRUE(tagger.ManualTag(id, {"cooking"}).ok());
  }
  tagger.AddDocument("other", "routing network peers");  // negative example
  ASSERT_TRUE(tagger.ManualTag(4, {"networking"}).ok());
  ASSERT_TRUE(tagger.TrainLocal().ok());

  // Global scorer contradicts the local model on "cooking".
  tagger.AttachGlobalScorer(
      [](const SparseVector&) {
        return std::vector<double>{-4.0};
      },
      {"cooking"});
  DocId id = tagger.AddDocument("q", "garlic butter pasta");
  double cooking_conf = 0;
  Result<std::vector<TagSuggestion>> blended = tagger.SuggestTags(id);
  ASSERT_TRUE(blended.ok());
  for (const TagSuggestion& s : blended.value()) {
    if (s.tag == "cooking") cooking_conf = s.confidence;
  }
  // The blended score is dragged below pure-local confidence.
  EXPECT_LT(cooking_conf, 0.5);
}

TEST(DocTaggerTest, TagCloudFromLibrary) {
  DocTagger tagger = SeededTagger();
  DocId id = tagger.AddDocument("both", "garlic pasta routing peers");
  ASSERT_TRUE(tagger.ManualTag(id, {"cooking", "networking"}).ok());
  TagCloud cloud = tagger.BuildTagCloud();
  ASSERT_EQ(cloud.nodes().size(), 2u);
  ASSERT_EQ(cloud.edges().size(), 1u);
  EXPECT_EQ(cloud.edges()[0].weight, 1u);
}

TEST(DocTaggerTest, SensitiveWordsExcludedFromVectors) {
  DocTaggerOptions options;
  options.preprocessor.sensitive_words = {"secretword"};
  DocTagger tagger(options);
  DocId with = tagger.AddDocument("a", "public content secretword");
  DocId without = tagger.AddDocument("b", "public content");
  EXPECT_EQ(tagger.GetDocument(with).value()->vector,
            tagger.GetDocument(without).value()->vector);
}

}  // namespace
}  // namespace p2pdt
