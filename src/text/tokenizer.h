#ifndef P2PDT_TEXT_TOKENIZER_H_
#define P2PDT_TEXT_TOKENIZER_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

namespace p2pdt {

/// Splits raw text into word tokens: maximal runs of ASCII letters/digits
/// (plus intra-word apostrophes, which are stripped). Everything else —
/// punctuation, whitespace, control characters — is a separator. Tokens
/// are lowercased (the paper's preprocessing is case-insensitive because
/// tags and words are matched by id); tokens with digits ("win32", "2010")
/// are kept.
///
/// This is the first stage of the paper's Document Preprocessing step
/// (Sec. 2): tokenize → stop-word / sensitive-word filter → Porter stem →
/// vectorize.
class Tokenizer {
 public:
  /// Minimum token length after normalization; shorter tokens are dropped.
  static constexpr std::size_t kMinTokenLength = 2;
  /// Maximum token length; longer tokens (base64 blobs, URLs run-ons) are
  /// dropped rather than truncated.
  static constexpr std::size_t kMaxTokenLength = 40;

  /// Calls `visit(std::string_view token)` for each normalized token of
  /// `text`, in order. Tokens are built in one reused buffer, so nothing is
  /// allocated per token; the view is valid only during the call.
  template <typename Visit>
  void ForEachToken(std::string_view text, Visit&& visit) const;

  /// Tokenizes `text` into normalized tokens (ForEachToken, collected).
  std::vector<std::string> Tokenize(std::string_view text) const;
};

template <typename Visit>
void Tokenizer::ForEachToken(std::string_view text, Visit&& visit) const {
  // Tokens longer than kMaxTokenLength are dropped, so the buffer stops
  // filling there and `length` alone decides. No token outgrows the text.
  std::string buffer(std::min(kMaxTokenLength, text.size()) + 1, '\0');
  char* const token = buffer.data();
  const std::size_t capacity = buffer.size();
  std::size_t length = 0;

  auto flush = [&] {
    if (length >= kMinTokenLength && length <= kMaxTokenLength) {
      visit(std::string_view(token, length));
    }
    length = 0;
  };
  auto append = [&](char ch) {
    if (length < capacity) token[length] = ch;
    ++length;
  };

  // ASCII classes, as <cctype> gives them in the "C" locale (bytes >= 0x80
  // are separators); no locale lookup per character.
  for (char raw : text) {
    const unsigned char c = static_cast<unsigned char>(raw);
    const unsigned char lower = c | 0x20;
    if (static_cast<unsigned char>(lower - 'a') < 26) {
      append(static_cast<char>(lower));
    } else if (static_cast<unsigned char>(c - '0') < 10) {
      append(raw);
    } else if (raw == '\'' && length > 0) {
      // Intra-word apostrophe ("don't" -> "dont"): strip, keep the run going.
      continue;
    } else {
      flush();
    }
  }
  flush();
}

}  // namespace p2pdt

#endif  // P2PDT_TEXT_TOKENIZER_H_
