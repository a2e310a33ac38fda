#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/csv_reader.h"

namespace nano::util {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs each test as its own process, in
  // parallel, so a shared name would let one test's TearDown delete
  // another's file.
  std::string path_ =
      ::testing::TempDir() + "nanodesign_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, HeaderAndNumericRows) {
  {
    CsvWriter w(path_, {"a", "b"});
    w.row(std::vector<double>{1.5, 2.0});
  }
  const std::string text = slurp(path_);
  EXPECT_NE(text.find("a,b\n"), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
}

TEST_F(CsvTest, StringRows) {
  {
    CsvWriter w(path_, {"x", "y"});
    w.row(std::vector<std::string>{"hello", "world"});
  }
  EXPECT_NE(slurp(path_).find("hello,world\n"), std::string::npos);
}

TEST_F(CsvTest, RowWidthEnforced) {
  CsvWriter w(path_, {"a", "b"});
  EXPECT_THROW(w.row(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(w.row(std::vector<std::string>{"1", "2", "3"}),
               std::invalid_argument);
}

TEST_F(CsvTest, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}),
               std::runtime_error);
}

TEST_F(CsvTest, SmallMagnitudesSurviveFormatting) {
  // Regression: std::to_string's fixed 6 decimals flattened nA/uA-scale
  // values (e.g. Ioff in A/m) to "0.000000". %.9g must round-trip them.
  const double ioff = 3.7e-9;
  const double leakage = 1.234567e-6;
  {
    CsvWriter w(path_, {"ioff", "leakage"});
    w.row(std::vector<double>{ioff, leakage});
  }
  std::ifstream in(path_);
  std::string header, line;
  std::getline(in, header);
  std::getline(in, line);
  const auto comma = line.find(',');
  ASSERT_NE(comma, std::string::npos);
  EXPECT_DOUBLE_EQ(std::stod(line.substr(0, comma)), ioff);
  EXPECT_DOUBLE_EQ(std::stod(line.substr(comma + 1)), leakage);
  EXPECT_EQ(line.find("0.000000,"), std::string::npos);
}

TEST_F(CsvTest, FormatCsvDoubleRoundTrips) {
  for (double v : {0.0, 1.0, -2.5, 1e-12, 6.02214076e23, 3.3333333e-9}) {
    EXPECT_DOUBLE_EQ(std::stod(formatCsvDouble(v)), v) << v;
  }
}

TEST_F(CsvTest, EscapeCsvCellQuotesSpecials) {
  EXPECT_EQ(escapeCsvCell("plain"), "plain");
  EXPECT_EQ(escapeCsvCell("3.14"), "3.14");
  EXPECT_EQ(escapeCsvCell("a,b"), "\"a,b\"");
  EXPECT_EQ(escapeCsvCell("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(escapeCsvCell("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(escapeCsvCell("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(escapeCsvCell(""), "");
}

// Minimal RFC-4180 parser (quotes, doubled quotes, embedded newlines) used
// only to prove the writer's output round-trips; the repo has no reader.
std::vector<std::vector<std::string>> parseCsv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell.push_back(c);
      }
    } else if (c == '"' && cell.empty()) {
      quoted = true;
    } else if (c == ',') {
      row.push_back(std::move(cell));
      cell.clear();
    } else if (c == '\n') {
      row.push_back(std::move(cell));
      cell.clear();
      rows.push_back(std::move(row));
      row.clear();
    } else {
      cell.push_back(c);
    }
  }
  return rows;
}

TEST_F(CsvTest, Rfc4180RoundTrip) {
  const std::vector<std::string> header = {"name", "note"};
  const std::vector<std::vector<std::string>> payload = {
      {"plain", "no specials"},
      {"comma, separated", "a,b,c"},
      {"quote \"inner\"", "\"leading and trailing\""},
      {"multi\nline", "cr\rcell"},
      {"", ",\"\n mixed \"\" everything"},
  };
  {
    CsvWriter w(path_, header);
    for (const auto& row : payload) w.row(row);
  }
  const auto rows = parseCsv(slurp(path_));
  ASSERT_EQ(rows.size(), payload.size() + 1);
  EXPECT_EQ(rows[0], header);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(rows[i + 1], payload[i]) << "row " << i;
  }
}

TEST_F(CsvTest, QuotedHeaderCells) {
  {
    CsvWriter w(path_, {"vdd (V)", "delay, ps"});
    w.row(std::vector<double>{1.2, 42.0});
  }
  const std::string text = slurp(path_);
  EXPECT_NE(text.find("vdd (V),\"delay, ps\"\n"), std::string::npos);
}

TEST_F(CsvTest, ReaderRoundTripsWriterOutput) {
  {
    CsvWriter w(path_, {"node_nm", "note"});
    w.row(std::vector<double>{180, 3.7e-9});
    w.row(std::vector<std::string>{"50", "comma, and \"quote\""});
  }
  const CsvTable table = readCsvFile(path_);
  ASSERT_EQ(table.header, (std::vector<std::string>{"node_nm", "note"}));
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(table.number(0, 0), 180.0);
  EXPECT_DOUBLE_EQ(table.number(0, 1), 3.7e-9);
  EXPECT_EQ(table.rows[1][1], "comma, and \"quote\"");
  EXPECT_EQ(table.columnIndex("note"), 1);
  EXPECT_EQ(table.columnIndex("missing"), -1);
}

TEST_F(CsvTest, ReaderHandlesCrlfAndMissingFinalNewline) {
  const CsvTable table = parseCsvText("a,b\r\n1,2\r\n3,4");
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(table.number(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(table.number(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(table.number(1, 1), 4.0);
}

TEST_F(CsvTest, CrlfRewriteWithLostFinalNewlineRoundTrips) {
  // A Windows checkout (LF -> CRLF) whose final newline was also lost —
  // e.g. a truncated transfer — must parse to the same table as the
  // writer's pristine output.
  {
    CsvWriter w(path_, {"node_nm", "note"});
    w.row(std::vector<std::string>{"180", "plain"});
    w.row(std::vector<std::string>{"35", "comma, inside"});
  }
  const std::string pristine = slurp(path_);
  std::string mangled;
  for (char c : pristine) {
    if (c == '\n') mangled += "\r\n";
    else mangled += c;
  }
  while (!mangled.empty() && (mangled.back() == '\n' || mangled.back() == '\r')) {
    mangled.pop_back();
  }
  const CsvTable original = parseCsvText(pristine);
  const CsvTable rewritten = parseCsvText(mangled);
  EXPECT_EQ(rewritten.header, original.header);
  EXPECT_EQ(rewritten.rows, original.rows);
}

TEST_F(CsvTest, QuotedCellsKeepCarriageReturns) {
  // CR only terminates records outside quotes; a quoted cell that
  // legitimately contains CRLF keeps it verbatim.
  const CsvTable table = parseCsvText("a,b\r\n\"x\r\ny\",2");
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], "x\r\ny");
  EXPECT_DOUBLE_EQ(table.number(0, 1), 2.0);
}

TEST_F(CsvTest, ReaderRejectsMalformedInput) {
  EXPECT_THROW(parseCsvText("a,b\n1\n"), std::invalid_argument);
  EXPECT_THROW(parseCsvText("a\n\"unterminated\n"), std::invalid_argument);
  EXPECT_THROW(readCsvFile("/nonexistent-dir-xyz/in.csv"), std::runtime_error);
  const CsvTable table = parseCsvText("a,b\n1,x\n");
  EXPECT_THROW(table.number(0, 1), std::invalid_argument);
  EXPECT_THROW(table.number(1, 0), std::out_of_range);
}

TEST_F(CsvTest, LineCountMatchesRows) {
  {
    CsvWriter w(path_, {"v"});
    for (int i = 0; i < 10; ++i) w.row(std::vector<double>{1.0 * i});
  }
  std::ifstream in(path_);
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 11);  // header + 10 rows
}

}  // namespace
}  // namespace nano::util
