#ifndef P2PDT_CORE_DOC_TAGGER_H_
#define P2PDT_CORE_DOC_TAGGER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/document.h"
#include "core/tag_cloud.h"
#include "core/tag_library.h"
#include "ml/multilabel.h"
#include "ml/online.h"
#include "text/preprocessor.h"

namespace p2pdt {

/// One suggested tag with its confidence in (0, 1) — a Suggestion Cloud
/// entry (Fig. 3). The UI's Confidence slider maps to the min_confidence
/// argument of SuggestTags.
struct TagSuggestion {
  std::string tag;
  double confidence = 0.0;
};

/// Scores document vectors against the *global* (collaboratively trained)
/// model. Returns one raw decision value per global tag; the adapter in
/// p2pdmt bridges this to a P2PClassifier running in the simulator.
using GlobalScorer = std::function<std::vector<double>(const SparseVector&)>;

struct DocTaggerOptions {
  PreprocessorOptions preprocessor;
  /// Trainer for the local (personal) model.
  LinearSvmOptions svm;
  /// Tag-assignment policy for AutoTag.
  TagDecisionPolicy policy;
};

/// The P2PDocTagger application facade — everything the demo UI (Figs. 3–4)
/// does, as a library:
///
///   * AddDocument — the user selects files to manage (File Browser);
///   * ManualTag — seed tagging ("in the beginning, when there are no
///     tagged documents in the entire network, users have to manually tag
///     some of their documents");
///   * TrainLocal — builds the personal classification model;
///   * AttachGlobalScorer — plugs in the P2P collaboratively-trained model;
///   * SuggestTags — the Suggestion Cloud with per-tag confidence;
///   * AutoTag / AutoTagAll — the AutoTag button;
///   * Refine — localized conflict resolution: the user's corrections
///     update the local model online (PA updates) for future tagging;
///   * library() / BuildTagCloud() — Library browsing and the Tag Cloud.
class DocTagger {
 public:
  explicit DocTagger(DocTaggerOptions options = DocTaggerOptions());

  // --- Document management -------------------------------------------------

  /// Adds a document (preprocessing it immediately) and returns its id.
  DocId AddDocument(std::string title, std::string text);

  Result<const Document*> GetDocument(DocId id) const;
  std::size_t num_documents() const { return documents_.size(); }

  /// Ids of documents with no tags yet (AutoTagAll's work list).
  std::vector<DocId> UntaggedDocuments() const;

  // --- Tagging -------------------------------------------------------------

  /// Assigns tags manually (replaces prior manual tags; open vocabulary —
  /// unknown tag names are registered on the fly).
  Status ManualTag(DocId id, const std::vector<std::string>& tags);

  /// Trains the local model from every currently tagged document. Requires
  /// at least one tagged document.
  Status TrainLocal();

  /// Plugs in the global model trained by P2P collaboration. `tag_names`
  /// maps the scorer's output positions to tag names (registering new
  /// names as needed).
  void AttachGlobalScorer(GlobalScorer scorer,
                          const std::vector<std::string>& tag_names);

  /// Suggestion Cloud: tags with confidence ≥ min_confidence, sorted
  /// alphabetically (as in the demo UI); confidence = sigmoid(score).
  Result<std::vector<TagSuggestion>> SuggestTags(
      DocId id, double min_confidence = 0.0) const;

  /// Applies the decision policy to the suggestions and stores them as
  /// auto tags (manual tags are preserved). Returns the tags assigned.
  Result<std::vector<std::string>> AutoTag(DocId id);

  /// AutoTags every untagged document; returns how many got ≥ 1 tag.
  Result<std::size_t> AutoTagAll();

  /// Tag refinement: replaces the document's tags with the corrected set
  /// and updates the local model online so future suggestions adapt
  /// ("P2PDocTagger will automatically update the classification model(s)
  /// in the back-end", Sec. 2).
  Status Refine(DocId id, const std::vector<std::string>& corrected_tags);

  // --- Browsing ------------------------------------------------------------

  const TagLibrary& library() const { return library_; }
  TagCloud BuildTagCloud() const;

  // --- Persistence -----------------------------------------------------

  /// Writes every tagged document's assignments as sidecar metadata under
  /// `directory` (paper: tags are "saved as the files' meta-data" so other
  /// PIM tools can read them). Returns how many documents were persisted.
  Result<std::size_t> SaveMetadata(const std::string& directory) const;

  /// Restores tag assignments from sidecars for documents already added
  /// (matched by id). Unknown tag names are registered; the library is
  /// re-indexed. Returns how many documents were restored.
  Result<std::size_t> LoadMetadata(const std::string& directory);

  /// All registered tag names, id order.
  const std::vector<std::string>& tag_names() const { return tag_names_; }

  Preprocessor& preprocessor() { return preprocessor_; }
  bool has_local_model() const { return has_local_model_; }
  bool has_global_scorer() const { return global_scorer_ != nullptr; }

 private:
  TagId RegisterTag(const std::string& name);
  /// Combined per-registered-tag scores for a vector.
  std::vector<double> ScoreVector(const SparseVector& x) const;
  void SetTags(Document& doc, std::vector<TagAssignment> tags);

  DocTaggerOptions options_;
  Preprocessor preprocessor_;
  std::vector<Document> documents_;
  TagLibrary library_;

  std::vector<std::string> tag_names_;           // TagId -> name
  std::map<std::string, TagId> tag_ids_;         // name -> TagId

  OneVsAllModel local_model_;
  bool has_local_model_ = false;

  GlobalScorer global_scorer_;
  std::vector<TagId> global_tag_map_;  // scorer position -> local TagId
};

}  // namespace p2pdt

#endif  // P2PDT_CORE_DOC_TAGGER_H_
