#include "common/string_util.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

namespace p2pdt {
namespace {

TEST(SplitTest, BasicFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, EmptyString) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitWhitespaceTest, DropsEmptyRuns) {
  EXPECT_EQ(SplitWhitespace("  foo \t bar\nbaz  "),
            (std::vector<std::string>{"foo", "bar", "baz"}));
  EXPECT_TRUE(SplitWhitespace("   \t\n ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, Basics) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"only"}, ","), "only");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(JoinSplitTest, RoundTrip) {
  std::vector<std::string> parts = {"x", "yy", "zzz"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("HeLLo World 123"), "hello world 123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(TrimTest, Basics) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("\t\na b\r\n"), "a b");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("foobar", "foo"));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(HumanBytesTest, Units) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KiB");
  EXPECT_EQ(HumanBytes(1024.0 * 1024.0 * 1.5), "1.50 MiB");
  EXPECT_EQ(HumanBytes(1024.0 * 1024.0 * 1024.0), "1.00 GiB");
}

TEST(WriteStringToFileTest, ReplacesTheFileAndReportsOpenFailure) {
  const std::string path = testing::TempDir() + "/string_util_test.bin";
  ASSERT_TRUE(WriteStringToFile(path, "first, longer body").ok());
  const std::string body("two\0lines\n", 10);
  ASSERT_TRUE(WriteStringToFile(path, body).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string read((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(read, body);
  std::remove(path.c_str());

  const Status missing_dir =
      WriteStringToFile(testing::TempDir() + "/no_such_dir/x.json", "{}");
  EXPECT_EQ(missing_dir.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace p2pdt
