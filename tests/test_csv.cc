#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "scratch_path.h"

namespace melody::util {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class CsvTest : public ::testing::Test {
 protected:
  std::string path_ = testing_support::scratch_path("melody_csv_test.csv");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_);
    csv.write_row({"run", "utility"});
    csv.write_numeric_row({1.0, 94.6});
  }
  EXPECT_EQ(read_file(path_), "run,utility\n1,94.6\n");
}

TEST_F(CsvTest, NumericPrecision) {
  {
    CsvWriter csv(path_);
    csv.write_numeric_row({0.1234567890123, 1e-9});
  }
  EXPECT_EQ(read_file(path_), "0.123456789,1e-09\n");
}

TEST_F(CsvTest, VectorRowOverloads) {
  {
    CsvWriter csv(path_);
    csv.write_row(std::vector<std::string>{"a", "b"});
    csv.write_numeric_row(std::vector<double>{2.0, 3.0});
  }
  EXPECT_EQ(read_file(path_), "a,b\n2,3\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters) {
  {
    CsvWriter csv(path_);
    csv.write_row({"has,comma", "has\"quote", "plain"});
  }
  EXPECT_EQ(read_file(path_), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST(CsvEscape, RulesMatchRfc4180) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
  EXPECT_EQ(CsvWriter::escape(""), "");
}

TEST(CsvWriterErrors, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_zzz/file.csv"), std::runtime_error);
}

TEST(CsvParse, SimpleRows) {
  const CsvRows rows = parse_csv("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(CsvParse, NoTrailingNewline) {
  const CsvRows rows = parse_csv("x,y");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"x", "y"}));
}

TEST(CsvParse, CrLfEndings) {
  const CsvRows rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvParse, BareCrEndsRow) {
  const CsvRows rows = parse_csv("a\rb");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "a");
  EXPECT_EQ(rows[1][0], "b");
}

TEST(CsvParse, QuotedCellsWithCommasAndNewlines) {
  const CsvRows rows = parse_csv("\"a,b\",\"line1\nline2\",plain\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "line1\nline2");
  EXPECT_EQ(rows[0][2], "plain");
}

TEST(CsvParse, DoubledQuotes) {
  const CsvRows rows = parse_csv("\"he said \"\"hi\"\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "he said \"hi\"");
}

TEST(CsvParse, EmptyCellsPreserved) {
  const CsvRows rows = parse_csv(",,\na,,b\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].size(), 3u);
  EXPECT_EQ(rows[0][1], "");
  EXPECT_EQ(rows[1][1], "");
}

TEST(CsvParse, QuotedEmptyCellProducesRow) {
  const CsvRows rows = parse_csv("\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{""}));
}

TEST(CsvParse, EmptyInputNoRows) { EXPECT_TRUE(parse_csv("").empty()); }

TEST(CsvParse, MalformedInputsThrow) {
  EXPECT_THROW(parse_csv("ab\"c\n"), std::invalid_argument);
  EXPECT_THROW(parse_csv("\"unterminated"), std::invalid_argument);
}

TEST_F(CsvTest, WriteThenReadRoundTrip) {
  {
    CsvWriter csv(path_);
    csv.write_row({"id", "note"});
    csv.write_row({"1", "has,comma"});
    csv.write_row({"2", "has\"quote"});
  }
  const CsvRows rows = read_csv_file(path_);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1][1], "has,comma");
  EXPECT_EQ(rows[2][1], "has\"quote");
}

TEST(CsvReadFile, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent_zzz.csv"), std::runtime_error);
}

}  // namespace
}  // namespace melody::util
