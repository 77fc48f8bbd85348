#include "text/tokenizer.h"

#include <limits>

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

TEST(TokenizerTest, PreservesCaseWhenDisabled) {
  TokenizerOptions opt;
  opt.lowercase = false;
  Tokenizer t(opt);
  EXPECT_EQ(t.Tokenize("MiXeD"), (std::vector<std::string>{"MiXeD"}));
}

TEST(TokenizerTest, DropsShortTokens) {
  Tokenizer t;  // min length 2
  EXPECT_EQ(t.Tokenize("a to x of it"),
            (std::vector<std::string>{"to", "of", "it"}));
}

TEST(TokenizerTest, DropsOverlongTokens) {
  TokenizerOptions opt;
  opt.max_token_length = 5;
  Tokenizer t(opt);
  EXPECT_EQ(t.Tokenize("short toolongtoken ok"),
            (std::vector<std::string>{"short", "ok"}));
}

TEST(TokenizerTest, UnboundedMaxLengthKeepsEveryToken) {
  TokenizerOptions opt;
  opt.max_token_length = std::numeric_limits<std::size_t>::max();
  Tokenizer t(opt);
  const std::string blob(200, 'z');
  EXPECT_EQ(t.Tokenize("ab " + blob + " cd"),
            (std::vector<std::string>{"ab", blob, "cd"}));
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

TEST(TokenizerTest, DropsDigitTokensWhenDisabled) {
  TokenizerOptions opt;
  opt.keep_alphanumeric = false;
  Tokenizer t(opt);
  EXPECT_EQ(t.Tokenize("win32 hello 2010"),
            (std::vector<std::string>{"hello"}));
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
