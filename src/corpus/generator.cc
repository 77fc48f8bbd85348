#include "corpus/generator.h"

#include <algorithm>
#include <cctype>
#include <string_view>
#include <unordered_set>

#include "text/stopwords.h"

namespace p2pdt {

namespace corpus_internal {

std::vector<std::string> MakeWordList(std::size_t count, Rng& rng,
                                      const std::string& prefix) {
  static const char* kSyllables[] = {
      "ta", "ri", "mo", "ken", "lo",  "su",  "ve", "na",  "pi", "dor",
      "ga", "le", "shi", "ran", "tu", "bel", "ko", "mi",  "za", "fen",
      "cu", "bra", "del", "vo", "ha", "ser", "ne", "qua", "li", "tor",
      "pa", "gre", "ni",  "sta", "re", "mu", "jo", "wen", "ce", "dal"};
  constexpr std::size_t kNumSyllables =
      sizeof(kSyllables) / sizeof(kSyllables[0]);

  std::unordered_set<std::string> seen;
  std::vector<std::string> words;
  words.reserve(count);
  while (words.size() < count) {
    std::size_t syllables = 2 + rng.NextU64(3);  // 2..4
    std::string w = prefix;
    for (std::size_t s = 0; s < syllables; ++s) {
      w += kSyllables[rng.NextU64(kNumSyllables)];
    }
    if (seen.insert(w).second) words.push_back(std::move(w));
  }
  return words;
}

}  // namespace corpus_internal

namespace {

/// Inflectional endings the Porter stemmer strips; applied at render time
/// so stemming has real work to do.
constexpr std::string_view kInflections[] = {"s",  "ing",  "ed",
                                             "er", "ness", "ation"};

std::string RenderText(const std::vector<const std::string*>& content_words,
                       const CorpusOptions& options, Rng& rng) {
  const auto& stops = StopWordFilter::DefaultEnglishStopWords();
  std::string text;
  // A content word renders to ~10 bytes with its space, inflection and
  // stop words; reserving 11 avoids regrowing most texts as they grow.
  text.reserve(content_words.size() * 11);
  std::size_t words_in_sentence = 0;
  std::size_t sentence_target = 6 + rng.NextU64(9);
  bool sentence_start = true;

  // Appends `w` plus `suffix`, capitalized at a sentence start.
  auto append_word = [&](const std::string& w, std::string_view suffix) {
    if (!text.empty()) text += ' ';
    const std::size_t at = text.size();
    text += w;
    text += suffix;
    if (sentence_start && at < text.size()) {
      text[at] = static_cast<char>(std::toupper(
          static_cast<unsigned char>(text[at])));
    }
    sentence_start = false;
  };

  for (const std::string* base : content_words) {
    // Optional stop word first (filtered out later by the pipeline).
    if (rng.Bernoulli(options.stop_word_probability)) {
      append_word(stops[rng.NextU64(stops.size())], {});
      ++words_in_sentence;
    }
    std::string_view inflection;
    if (rng.Bernoulli(options.inflection_probability)) {
      inflection = kInflections[rng.NextU64(sizeof(kInflections) /
                                            sizeof(kInflections[0]))];
    }
    append_word(*base, inflection);
    if (++words_in_sentence >= sentence_target) {
      text += '.';
      words_in_sentence = 0;
      sentence_target = 6 + rng.NextU64(9);
      sentence_start = true;
    }
  }
  if (!text.empty() && text.back() != '.') text += '.';
  return text;
}

}  // namespace

Result<GeneratedCorpus> GenerateCorpus(const CorpusOptions& options) {
  if (options.num_users == 0 || options.num_tags == 0 ||
      options.vocabulary_size == 0) {
    return Status::InvalidArgument(
        "corpus requires users, tags and vocabulary");
  }
  if (options.min_docs_per_user > options.max_docs_per_user ||
      options.min_doc_words > options.max_doc_words) {
    return Status::InvalidArgument("corpus min/max ranges inverted");
  }
  if (options.topic_words_per_tag > options.vocabulary_size) {
    return Status::InvalidArgument(
        "topic_words_per_tag exceeds vocabulary_size");
  }

  Rng rng(options.seed);
  GeneratedCorpus corpus;

  // Vocabulary and (disjoint) tag names. The "xq" prefix guarantees tag
  // names never collide with document words — per the paper, tags need not
  // occur in the documents at all.
  std::vector<std::string> vocab =
      corpus_internal::MakeWordList(options.vocabulary_size, rng);
  corpus.tag_names =
      corpus_internal::MakeWordList(options.num_tags, rng, "xq");

  // Per-tag topical word sets with Zipf-weighted frequencies.
  corpus.topic_words.resize(options.num_tags);
  std::vector<std::vector<std::size_t>> topic_word_ids(options.num_tags);
  for (std::size_t t = 0; t < options.num_tags; ++t) {
    std::vector<std::size_t> picks = rng.SampleWithoutReplacement(
        options.vocabulary_size, options.topic_words_per_tag);
    topic_word_ids[t] = picks;
    for (std::size_t id : picks) corpus.topic_words[t].push_back(vocab[id]);
  }
  ZipfSampler topic_sampler(options.topic_words_per_tag,
                            options.topic_word_zipf);
  ZipfSampler background_sampler(options.vocabulary_size,
                                 options.background_word_zipf);

  // Global tag popularity (power law, shuffled so tag id != rank).
  ZipfSampler tag_popularity(options.num_tags, options.tag_popularity_zipf);
  std::vector<double> tag_weight(options.num_tags);
  for (std::size_t t = 0; t < options.num_tags; ++t) {
    tag_weight[t] = tag_popularity.Pmf(t);
  }
  rng.Shuffle(tag_weight);

  corpus.user_documents.resize(options.num_users);
  for (std::size_t user = 0; user < options.num_users; ++user) {
    // User interest: Dirichlet-skewed reweighting of global popularity.
    std::vector<double> interest =
        rng.Dirichlet(options.num_tags, options.user_interest_alpha);
    for (std::size_t t = 0; t < options.num_tags; ++t) {
      interest[t] *= tag_weight[t];
    }

    std::size_t num_docs =
        options.min_docs_per_user +
        rng.NextU64(options.max_docs_per_user - options.min_docs_per_user +
                    1);
    for (std::size_t d = 0; d < num_docs; ++d) {
      RawDocument doc;
      doc.user = user;

      // Tags: first from the user's interest, extras with decaying
      // probability.
      std::vector<std::size_t> tags;
      std::size_t first = rng.Categorical(interest);
      if (first >= options.num_tags) first = rng.NextU64(options.num_tags);
      tags.push_back(first);
      while (tags.size() < options.max_tags_per_doc &&
             rng.Bernoulli(options.extra_tag_probability)) {
        std::size_t extra = rng.Categorical(interest);
        if (extra >= options.num_tags) break;
        if (std::find(tags.begin(), tags.end(), extra) == tags.end()) {
          tags.push_back(extra);
        }
      }
      std::sort(tags.begin(), tags.end());
      for (std::size_t t : tags) doc.tags.push_back(corpus.tag_names[t]);

      // Content words: topic mixture plus background noise.
      std::size_t length =
          options.min_doc_words +
          rng.NextU64(options.max_doc_words - options.min_doc_words + 1);
      std::vector<const std::string*> content;
      content.reserve(length);
      for (std::size_t w = 0; w < length; ++w) {
        if (rng.Bernoulli(options.background_word_fraction)) {
          content.push_back(&vocab[background_sampler.Sample(rng)]);
        } else {
          std::size_t topic = tags[rng.NextU64(tags.size())];
          std::size_t rank = topic_sampler.Sample(rng);
          content.push_back(&vocab[topic_word_ids[topic][rank]]);
        }
      }

      doc.title = "doc_u" + std::to_string(user) + "_" + std::to_string(d);
      doc.text = RenderText(content, options, rng);

      corpus.user_documents[user].push_back(corpus.documents.size());
      corpus.documents.push_back(std::move(doc));
    }
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// Streaming corpus with scripted drift
// ---------------------------------------------------------------------------

namespace {

/// Key offsets separating the stream's independent RNG families. Epoch
/// document streams use DeriveSeed(seed, kEpochStreamKey + epoch); event
/// mutations use DeriveSeed(seed, kEventStreamKey + event index, epoch).
constexpr uint64_t kEpochStreamKey = 0x0D0C5ull;
constexpr uint64_t kEventStreamKey = 0xD21F7ull;

Status ValidateStream(const StreamOptions& options) {
  const CorpusOptions& base = options.base;
  if (base.num_users == 0 || base.num_tags == 0 ||
      base.vocabulary_size == 0) {
    return Status::InvalidArgument(
        "stream requires users, tags and vocabulary");
  }
  if (options.num_epochs == 0) {
    return Status::InvalidArgument("stream requires at least one epoch");
  }
  if (options.min_docs_per_user_per_epoch >
          options.max_docs_per_user_per_epoch ||
      base.min_doc_words > base.max_doc_words) {
    return Status::InvalidArgument("stream min/max ranges inverted");
  }
  if (base.topic_words_per_tag > base.vocabulary_size) {
    return Status::InvalidArgument(
        "topic_words_per_tag exceeds vocabulary_size");
  }
  const std::size_t total_tags = base.num_tags + options.reserve_tags;
  for (const DriftEvent& ev : options.events) {
    if (ev.epoch >= options.num_epochs) {
      return Status::InvalidArgument("drift event epoch beyond stream end");
    }
    if (ev.duration_epochs == 0) {
      return Status::InvalidArgument("drift event duration must be >= 1");
    }
    switch (ev.kind) {
      case DriftKind::kVocabularyShift:
        if (ev.tag != DriftEvent::kAllTags && ev.tag >= total_tags) {
          return Status::InvalidArgument("vocabulary-shift tag out of range");
        }
        break;
      case DriftKind::kTopicRotation:
      case DriftKind::kPopularitySpike:
        if (ev.tag >= total_tags) {
          return Status::InvalidArgument("drift event needs a concrete tag");
        }
        break;
      case DriftKind::kNewTag:
        if (ev.tag < base.num_tags || ev.tag >= total_tags) {
          return Status::InvalidArgument(
              "new-tag event must name a reserved tag");
        }
        break;
    }
  }
  return Status::OK();
}

}  // namespace

Result<StreamedCorpus> GenerateStream(const StreamOptions& options) {
  Status valid = ValidateStream(options);
  if (!valid.ok()) return valid;

  const CorpusOptions& base = options.base;
  const std::size_t total_tags = base.num_tags + options.reserve_tags;

  // Setup stream: fixed vocabulary, tag universe, initial topic word sets,
  // base popularity and per-user interests. Mirrors GenerateCorpus, widened
  // to the full tag universe so the feature/tag spaces never change
  // mid-stream (reserved tags simply have zero weight until activated).
  Rng rng(base.seed);
  StreamedCorpus stream;
  stream.num_epochs = options.num_epochs;

  std::vector<std::string> vocab =
      corpus_internal::MakeWordList(base.vocabulary_size, rng);
  stream.tag_names = corpus_internal::MakeWordList(total_tags, rng, "xq");

  stream.topic_words.resize(total_tags);
  std::vector<std::vector<std::size_t>> topic_word_ids(total_tags);
  for (std::size_t t = 0; t < total_tags; ++t) {
    topic_word_ids[t] = rng.SampleWithoutReplacement(
        base.vocabulary_size, base.topic_words_per_tag);
    for (std::size_t id : topic_word_ids[t]) {
      stream.topic_words[t].push_back(vocab[id]);
    }
  }
  ZipfSampler topic_sampler(base.topic_words_per_tag, base.topic_word_zipf);
  ZipfSampler background_sampler(base.vocabulary_size,
                                 base.background_word_zipf);

  ZipfSampler tag_popularity(base.num_tags, base.tag_popularity_zipf);
  std::vector<double> tag_weight(base.num_tags);
  for (std::size_t t = 0; t < base.num_tags; ++t) {
    tag_weight[t] = tag_popularity.Pmf(t);
  }
  rng.Shuffle(tag_weight);
  tag_weight.resize(total_tags, 0.0);  // reserved tags start inactive

  std::vector<std::vector<double>> base_interest(base.num_users);
  for (std::size_t user = 0; user < base.num_users; ++user) {
    base_interest[user] = rng.Dirichlet(total_tags, base.user_interest_alpha);
  }

  stream.first_drift_epoch = options.num_epochs;
  for (const DriftEvent& ev : options.events) {
    stream.first_drift_epoch = std::min(stream.first_drift_epoch, ev.epoch);
  }

  stream.user_documents.resize(base.num_users);
  for (std::size_t epoch = 0; epoch < options.num_epochs; ++epoch) {
    // Persistent distribution mutations scheduled at (or spanning) this
    // epoch. Each (event, epoch) pair draws from its own derived stream, so
    // event randomness never leaks into the per-epoch document streams.
    for (std::size_t ei = 0; ei < options.events.size(); ++ei) {
      const DriftEvent& ev = options.events[ei];
      const bool starts_here = epoch == ev.epoch;
      const bool spans_here =
          epoch >= ev.epoch && epoch < ev.epoch + ev.duration_epochs;
      switch (ev.kind) {
        case DriftKind::kVocabularyShift: {
          if (!starts_here) break;
          Rng evrng(DeriveSeed(base.seed, kEventStreamKey + ei, epoch));
          if (ev.tag == DriftEvent::kAllTags) {
            for (std::size_t t = 0; t < total_tags; ++t) {
              if (tag_weight[t] <= 0.0) continue;  // inactive tags keep words
              topic_word_ids[t] = evrng.SampleWithoutReplacement(
                  base.vocabulary_size, base.topic_words_per_tag);
            }
          } else {
            topic_word_ids[ev.tag] = evrng.SampleWithoutReplacement(
                base.vocabulary_size, base.topic_words_per_tag);
          }
          break;
        }
        case DriftKind::kTopicRotation: {
          if (!spans_here) break;
          Rng evrng(DeriveSeed(base.seed, kEventStreamKey + ei, epoch));
          // Replace this step's share of the rotation: magnitude fraction
          // of the topic words, spread evenly over the duration.
          const double per_step =
              ev.magnitude * static_cast<double>(base.topic_words_per_tag) /
              static_cast<double>(ev.duration_epochs);
          std::size_t replace = static_cast<std::size_t>(per_step + 0.999999);
          replace = std::min(replace, base.topic_words_per_tag);
          if (replace == 0) break;
          std::vector<std::size_t> slots = evrng.SampleWithoutReplacement(
              base.topic_words_per_tag, replace);
          for (std::size_t slot : slots) {
            topic_word_ids[ev.tag][slot] =
                evrng.NextU64(base.vocabulary_size);
          }
          break;
        }
        case DriftKind::kNewTag: {
          if (!starts_here) break;
          // Activate at magnitude × median active weight (no RNG needed).
          std::vector<double> active;
          for (double w : tag_weight) {
            if (w > 0.0) active.push_back(w);
          }
          std::sort(active.begin(), active.end());
          const double median =
              active.empty() ? 1.0 : active[active.size() / 2];
          tag_weight[ev.tag] = ev.magnitude * median;
          break;
        }
        case DriftKind::kPopularitySpike:
          break;  // transient; applied to the effective weights below
      }
    }

    // Effective popularity this epoch: persistent weights × active spikes.
    std::vector<double> effective = tag_weight;
    for (const DriftEvent& ev : options.events) {
      if (ev.kind != DriftKind::kPopularitySpike) continue;
      if (epoch >= ev.epoch && epoch < ev.epoch + ev.duration_epochs) {
        effective[ev.tag] *= ev.magnitude;
      }
    }

    // This epoch's documents come from an epoch-keyed stream, independent
    // of every other epoch and of all event streams.
    Rng erng(DeriveSeed(base.seed, kEpochStreamKey, epoch));
    for (std::size_t user = 0; user < base.num_users; ++user) {
      std::vector<double> interest = base_interest[user];
      for (std::size_t t = 0; t < total_tags; ++t) {
        interest[t] *= effective[t];
      }

      std::size_t num_docs = options.min_docs_per_user_per_epoch +
                             erng.NextU64(options.max_docs_per_user_per_epoch -
                                          options.min_docs_per_user_per_epoch +
                                          1);
      for (std::size_t d = 0; d < num_docs; ++d) {
        RawDocument doc;
        doc.user = user;

        std::vector<std::size_t> tags;
        std::size_t first = erng.Categorical(interest);
        if (first >= total_tags) first = erng.NextU64(base.num_tags);
        tags.push_back(first);
        while (tags.size() < base.max_tags_per_doc &&
               erng.Bernoulli(base.extra_tag_probability)) {
          std::size_t extra = erng.Categorical(interest);
          if (extra >= total_tags) break;
          if (std::find(tags.begin(), tags.end(), extra) == tags.end()) {
            tags.push_back(extra);
          }
        }
        std::sort(tags.begin(), tags.end());
        for (std::size_t t : tags) doc.tags.push_back(stream.tag_names[t]);

        std::size_t length =
            base.min_doc_words +
            erng.NextU64(base.max_doc_words - base.min_doc_words + 1);
        std::vector<const std::string*> content;
        content.reserve(length);
        for (std::size_t w = 0; w < length; ++w) {
          if (erng.Bernoulli(base.background_word_fraction)) {
            content.push_back(&vocab[background_sampler.Sample(erng)]);
          } else {
            std::size_t topic = tags[erng.NextU64(tags.size())];
            std::size_t rank = topic_sampler.Sample(erng);
            content.push_back(&vocab[topic_word_ids[topic][rank]]);
          }
        }

        doc.title = "doc_e" + std::to_string(epoch) + "_u" +
                    std::to_string(user) + "_" + std::to_string(d);
        doc.text = RenderText(content, base, erng);

        stream.user_documents[user].push_back(stream.documents.size());
        stream.doc_epoch.push_back(epoch);
        stream.documents.push_back(std::move(doc));
      }
    }
  }
  return stream;
}

}  // namespace p2pdt
