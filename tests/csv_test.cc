#include "common/csv.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

TEST(CsvEscapeTest, PlainFieldUnchanged) {
  EXPECT_EQ(CsvEscape("hello"), "hello");
  EXPECT_EQ(CsvEscape(""), "");
}

TEST(CsvEscapeTest, QuotesCommasAndNewlines) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriterTest, HeaderAndRows) {
  CsvWriter csv({"x", "y"});
  EXPECT_TRUE(csv.AddRow({"1", "2"}).ok());
  EXPECT_TRUE(csv.AddRow({"3", "4"}).ok());
  EXPECT_EQ(csv.ToString(), "x,y\n1,2\n3,4\n");
  EXPECT_EQ(csv.num_rows(), 2u);
  EXPECT_EQ(csv.num_columns(), 2u);
}

TEST(CsvWriterTest, RejectsWrongWidth) {
  CsvWriter csv({"a", "b"});
  Status s = csv.AddRow({"only-one"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(csv.num_rows(), 0u);
}

TEST(CsvWriterTest, NumericRowFormatting) {
  CsvWriter csv({"v", "w"});
  ASSERT_TRUE(csv.AddNumericRow({1.5, 0.000012}).ok());
  EXPECT_EQ(csv.ToString(), "v,w\n1.5,1.2e-05\n");
}

TEST(CsvRowTest, FormatsEachKindOfColumn) {
  CsvWriter csv;
  CsvWriter::Row row;
  row.Add("name", "pace")
      .Add("f1", 0.8793456)
      .Add("tiny", 0.000012)
      .Add("count", uint64_t{18446744073709551615ull})
      .Add("signed", -3)
      .Flag("reliable", true)
      .Flag("churn", false)
      .Hex("fingerprint", 0x6ac55177d95bb636ull)
      .Hex("small", 0x2aull);
  ASSERT_TRUE(csv.AddRow(row).ok());
  EXPECT_EQ(csv.ToString(),
            "name,f1,tiny,count,signed,reliable,churn,fingerprint,small\n"
            "pace,0.879346,1.2e-05,18446744073709551615,-3,1,0,"
            "6ac55177d95bb636,000000000000002a\n");
}

TEST(CsvRowTest, FirstRowFixesTheHeader) {
  CsvWriter csv;
  EXPECT_EQ(csv.num_columns(), 0u);
  CsvWriter::Row first;
  first.Add("a", 1).Add("b", 2.5);
  ASSERT_TRUE(csv.AddRow(first).ok());
  EXPECT_EQ(csv.header(), (std::vector<std::string>{"a", "b"}));
  CsvWriter::Row second;
  second.Add("a", 3).Add("b", 0.25);
  ASSERT_TRUE(csv.AddRow(second).ok());
  EXPECT_EQ(csv.ToString(), "a,b\n1,2.5\n3,0.25\n");
}

TEST(CsvRowTest, MismatchedRowIsRejected) {
  CsvWriter csv;
  CsvWriter::Row first;
  first.Add("a", 1).Add("b", 2);
  ASSERT_TRUE(csv.AddRow(first).ok());

  CsvWriter::Row renamed;
  renamed.Add("a", 1).Add("c", 2);
  CsvWriter::Row reordered;
  reordered.Add("b", 2).Add("a", 1);
  CsvWriter::Row short_row;
  short_row.Add("a", 1);
  for (const CsvWriter::Row* bad : {&renamed, &reordered, &short_row}) {
    EXPECT_EQ(csv.AddRow(*bad).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(csv.num_rows(), 1u);

  // A header given up front binds built rows too.
  CsvWriter fixed({"x"});
  CsvWriter::Row y;
  y.Add("y", 1);
  EXPECT_EQ(fixed.AddRow(y).code(), StatusCode::kInvalidArgument);
  CsvWriter::Row x;
  x.Add("x", 1);
  EXPECT_TRUE(fixed.AddRow(x).ok());
}

TEST(CsvWriterTest, WriteFileRoundTrip) {
  std::string path = ::testing::TempDir() + "/p2pdt_csv_test.csv";
  CsvWriter csv({"name"});
  ASSERT_TRUE(csv.AddRow({"value,with,commas"}).ok());
  ASSERT_TRUE(csv.WriteFile(path).ok());
  std::ifstream f(path);
  std::string content((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "name\n\"value,with,commas\"\n");
  std::remove(path.c_str());
}

TEST(CsvWriterTest, WriteFileBadPathFails) {
  CsvWriter csv({"a"});
  EXPECT_EQ(csv.WriteFile("/nonexistent_dir_xyz/file.csv").code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace p2pdt
