#include "common/json_check.h"

#include <cctype>
#include <cstdio>

namespace p2pdt {

namespace {

/// Recursive-descent JSON syntax walker over a string_view. Tracks only a
/// cursor; reports the byte offset of the first violation.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  Status Check() {
    SkipWs();
    Status s = Value(0);
    if (!s.ok()) return s;
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing content after JSON value");
    }
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 200;

  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("JSON syntax error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  bool Eof() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWs() {
    while (!Eof() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' ||
                      Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (Eof() || Peek() != c) return false;
    ++pos_;
    return true;
  }

  Status Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("invalid literal");
    }
    pos_ += word.size();
    return Status::OK();
  }

  Status String() {
    if (!Consume('"')) return Fail("expected string");
    while (!Eof()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Fail("unescaped control character in string");
      }
      if (c != '\\') continue;
      if (Eof()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
        case 'b':
        case 'f':
        case 'n':
        case 'r':
        case 't':
          break;
        case 'u': {
          for (int i = 0; i < 4; ++i) {
            if (Eof() || !std::isxdigit(static_cast<unsigned char>(Peek()))) {
              return Fail("bad \\u escape");
            }
            ++pos_;
          }
          break;
        }
        default:
          --pos_;
          return Fail("bad escape character");
      }
    }
    return Fail("unterminated string");
  }

  Status Number() {
    std::size_t start = pos_;
    Consume('-');
    if (Eof() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      pos_ = start;
      return Fail("expected number");
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (Consume('.')) {
      if (Eof() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("digits required after decimal point");
      }
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (!Eof() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!Eof() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (Eof() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("digits required in exponent");
      }
      while (!Eof() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    return Status::OK();
  }

  Status Value(int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (Eof()) return Fail("expected value");
    switch (Peek()) {
      case '{':
        return Object(depth);
      case '[':
        return Array(depth);
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  Status Object(int depth) {
    Consume('{');
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      Status s = String();
      if (!s.ok()) return s;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':' after object key");
      SkipWs();
      s = Value(depth + 1);
      if (!s.ok()) return s;
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Fail("expected ',' or '}' in object");
    }
  }

  Status Array(int depth) {
    Consume('[');
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      SkipWs();
      Status s = Value(depth + 1);
      if (!s.ok()) return s;
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Fail("expected ',' or ']' in array");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Status CheckJsonSyntax(std::string_view text) {
  return JsonChecker(text).Check();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool JsonHasKey(std::string_view text, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  return text.find(needle) != std::string_view::npos;
}

}  // namespace p2pdt
