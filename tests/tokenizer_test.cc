#include "text/tokenizer.h"

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

TEST(TokenizerTest, SplitsOnPunctuationAndWhitespace) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("Hello, world! foo-bar"),
            (std::vector<std::string>{"hello", "world", "foo", "bar"}));
}

TEST(TokenizerTest, LowercasesByDefault) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("MiXeD CaSe"),
            (std::vector<std::string>{"mixed", "case"}));
}

TEST(TokenizerTest, DropsShortTokens) {
  Tokenizer t;  // min length 2
  EXPECT_EQ(t.Tokenize("a to x of it"),
            (std::vector<std::string>{"to", "of", "it"}));
}

TEST(TokenizerTest, DropsOverlongTokens) {
  Tokenizer t;
  const std::string longest(Tokenizer::kMaxTokenLength, 'y');
  const std::string overlong(Tokenizer::kMaxTokenLength + 1, 'z');
  EXPECT_EQ(t.Tokenize("short " + overlong + " " + longest + " ok"),
            (std::vector<std::string>{"short", longest, "ok"}));
}

TEST(TokenizerTest, StripsIntraWordApostrophes) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("don't can't"),
            (std::vector<std::string>{"dont", "cant"}));
}

TEST(TokenizerTest, KeepsAlphanumericByDefault) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("win32 b2b 2010"),
            (std::vector<std::string>{"win32", "b2b", "2010"}));
}

TEST(TokenizerTest, EmptyAndPurePunctuation) {
  Tokenizer t;
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("... !!! ---").empty());
}

TEST(TokenizerTest, TrailingTokenFlushed) {
  Tokenizer t;
  EXPECT_EQ(t.Tokenize("end"), (std::vector<std::string>{"end"}));
}

TEST(TokenizerTest, NonAsciiBytesActAsSeparators) {
  Tokenizer t;
  // UTF-8 multibyte sequences are treated as separators (ASCII pipeline).
  std::vector<std::string> tokens = t.Tokenize("caf\xC3\xA9 shop");
  EXPECT_EQ(tokens, (std::vector<std::string>{"caf", "shop"}));
}

}  // namespace
}  // namespace p2pdt
