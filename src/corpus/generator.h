#ifndef P2PDT_CORPUS_GENERATOR_H_
#define P2PDT_CORPUS_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace p2pdt {

/// Parameters of the synthetic Delicious-like corpus.
///
/// The paper demonstrates on a crawl of delicious.com bookmarks (Wetzker et
/// al. 2008): ~950k users, of whom those with 50–200 annotated bookmarks
/// were kept. That dataset is not redistributable, so this generator
/// produces a corpus with the same statistical shape (see DESIGN.md §2):
///
///  * power-law tag popularity (a few huge tags, a long tail),
///  * multi-label documents (tags drawn per document, 1..max),
///  * per-user topical interest profiles (users are *not* IID — exactly
///    what makes P2P learning hard),
///  * documents whose words are topic-dependent, with background noise,
///    inflectional endings (for the stemmer) and stop words (for the
///    filter),
///  * tag names disjoint from the document vocabulary, reflecting the
///    paper's emphasis that "tags may not necessarily be contained within
///    the documents".
struct CorpusOptions {
  std::size_t num_users = 64;
  /// Paper: users with at least 50 and fewer than 200 bookmarks were kept.
  std::size_t min_docs_per_user = 50;
  std::size_t max_docs_per_user = 200;

  std::size_t num_tags = 20;
  std::size_t vocabulary_size = 4000;
  /// Distinct topical words per tag.
  std::size_t topic_words_per_tag = 60;

  /// Document length in (pre-filter) content words.
  std::size_t min_doc_words = 40;
  std::size_t max_doc_words = 160;

  /// Tags per document: 1 + Binomial-ish up to this cap.
  std::size_t max_tags_per_doc = 4;
  /// Probability of each additional tag beyond the first.
  double extra_tag_probability = 0.45;

  /// Zipf exponent of global tag popularity.
  double tag_popularity_zipf = 0.9;
  /// Zipf exponent of word frequency inside a topic.
  double topic_word_zipf = 1.05;
  /// Fraction of words drawn from the background (all-vocabulary)
  /// distribution instead of the document's topics.
  double background_word_fraction = 0.25;
  /// Zipf exponent of the background word distribution.
  double background_word_zipf = 1.1;

  /// Dirichlet concentration of per-user interest over tags; smaller is
  /// more skewed (each user cares about fewer topics).
  double user_interest_alpha = 0.25;

  /// Probability of appending an inflectional ending (-s/-ing/-ed/...) to
  /// a content word at render time; the Porter stemmer removes these.
  double inflection_probability = 0.20;
  /// Probability of inserting a stop word between content words.
  double stop_word_probability = 0.20;

  uint64_t seed = 2010;
};

/// A generated document: raw text (as the preprocessing pipeline would read
/// it from disk), its ground-truth tags (by name), and the owning user.
struct RawDocument {
  std::string title;
  std::string text;
  std::vector<std::string> tags;
  std::size_t user = 0;
};

/// A full synthetic corpus plus its generation metadata.
struct GeneratedCorpus {
  std::vector<RawDocument> documents;
  /// Tag-name universe, index = dense tag id used downstream.
  std::vector<std::string> tag_names;
  /// Document indexes per user.
  std::vector<std::vector<std::size_t>> user_documents;
  /// Ground-truth topical words per tag (diagnostics / tests).
  std::vector<std::vector<std::string>> topic_words;

  std::size_t num_users() const { return user_documents.size(); }
};

/// Generates a corpus; deterministic in `options.seed`.
Result<GeneratedCorpus> GenerateCorpus(const CorpusOptions& options);

// ---------------------------------------------------------------------------
// Streaming corpus with scripted drift
// ---------------------------------------------------------------------------
//
// Real tagging systems are not stationary: vocabularies grow, tag
// popularity drifts and user attention is bursty (Golder & Huberman;
// Santos-Neto et al.). The stream generator emits the same Delicious-like
// corpus as GenerateCorpus, but as a timed sequence of per-epoch document
// batches whose generating distribution is perturbed by scripted events.

/// The ways a scripted event can perturb the generating distribution.
enum class DriftKind : uint8_t {
  /// Gradual concept drift: the tag's topical word set rotates toward
  /// fresh vocabulary, `magnitude` fraction replaced over the event's
  /// duration (a little each epoch).
  kTopicRotation = 0,
  /// Sudden concept shift: the affected tag's (or every tag's) topical
  /// word set is resampled wholesale at the event epoch. Models trained
  /// before the event become near-useless for the affected tags.
  kVocabularyShift,
  /// Bursty attention: the tag's global popularity weight is multiplied
  /// by `magnitude` for the event's duration, then reverts.
  kPopularitySpike,
  /// Vocabulary growth: a reserved tag (weight zero until now) becomes
  /// active with `magnitude` × the median active-tag weight.
  kNewTag,
};

/// One scripted perturbation of the stream's generating distribution.
/// All randomness an event consumes is drawn from a stream keyed by
/// DeriveSeed(seed, event index, epoch), so adding, removing or reordering
/// events never shifts the document-generation RNG streams of untouched
/// epochs — the property the sharded drift harness's determinism rests on.
struct DriftEvent {
  DriftKind kind = DriftKind::kVocabularyShift;
  /// First epoch whose documents are drawn from the perturbed distribution.
  std::size_t epoch = 0;
  /// Epochs a gradual rotation spreads over / a popularity spike lasts.
  std::size_t duration_epochs = 1;
  /// Rotation fraction, spike multiplier, or new-tag weight multiplier.
  double magnitude = 1.0;
  /// Affected tag id, or kAllTags (vocabulary shift only) for every
  /// currently active tag.
  static constexpr std::size_t kAllTags = static_cast<std::size_t>(-1);
  std::size_t tag = kAllTags;
};

/// Parameters of a drifting document stream.
struct StreamOptions {
  /// Shape of the underlying corpus. min/max_docs_per_user are ignored —
  /// per-epoch volume is controlled below.
  CorpusOptions base;
  std::size_t num_epochs = 8;
  /// Documents each user produces per epoch (uniform in [min, max]).
  std::size_t min_docs_per_user_per_epoch = 4;
  std::size_t max_docs_per_user_per_epoch = 8;
  /// Extra inactive tags in the universe available to kNewTag events.
  /// They have topic words and names from the start (so the feature/tag
  /// spaces are fixed) but zero popularity until an event activates them.
  std::size_t reserve_tags = 0;
  /// Scripted drift events; empty = a stationary stream.
  std::vector<DriftEvent> events;
};

/// A generated document stream plus its generation metadata. Documents are
/// ordered epoch-major (all of epoch 0, then epoch 1, ...).
struct StreamedCorpus {
  std::vector<RawDocument> documents;
  /// Epoch of documents[i] (parallel to documents).
  std::vector<std::size_t> doc_epoch;
  /// Full tag universe including reserved (not-yet-active) tags.
  std::vector<std::string> tag_names;
  std::vector<std::vector<std::size_t>> user_documents;
  /// Initial (pre-drift) topical words per tag (diagnostics / tests).
  std::vector<std::vector<std::string>> topic_words;
  std::size_t num_epochs = 0;
  /// Earliest epoch any event perturbs (num_epochs when events is empty).
  std::size_t first_drift_epoch = 0;

  std::size_t num_users() const { return user_documents.size(); }
};

/// Generates a drifting stream; deterministic in (options.base.seed,
/// options.events). Epoch e's documents are drawn from an RNG stream keyed
/// by DeriveSeed(seed, e), independent of every other epoch's stream.
Result<StreamedCorpus> GenerateStream(const StreamOptions& options);

namespace corpus_internal {
/// Generates `count` distinct pronounceable pseudo-words (syllable
/// concatenations); exposed for tests.
std::vector<std::string> MakeWordList(std::size_t count, Rng& rng,
                                      const std::string& prefix = "");
}  // namespace corpus_internal

}  // namespace p2pdt

#endif  // P2PDT_CORPUS_GENERATOR_H_
