// Minimal CSV writer so benches can dump figure series for external
// plotting. The matching reader lives with the tests
// (tests/support/csv_reader.h).
#pragma once

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace nano::util {

/// Round-trip-safe compact decimal form of a double. %.9g keeps 9
/// significant digits at any magnitude, so nA/uA-scale values (Ioff,
/// per-gate leakage) survive the trip through a CSV — unlike
/// std::to_string's fixed 6 decimals, which truncates them to 0.
inline std::string formatCsvDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// RFC-4180 cell encoding: cells containing a comma, double quote, CR or
/// LF are wrapped in double quotes with embedded quotes doubled. Plain
/// cells pass through unchanged, so numeric output stays byte-identical.
inline std::string escapeCsvCell(const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Streams rows of doubles/strings to a CSV file. The header row fixes the
/// column count; mismatched rows throw. String cells are quoted/escaped
/// per RFC 4180 whenever they contain a delimiter, quote, or newline.
class CsvWriter {
 public:
  CsvWriter(const std::string& path, std::vector<std::string> header)
      : out_(path), columns_(header.size()) {
    if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
    writeCells(header);
  }

  void row(const std::vector<double>& values) {
    if (values.size() != columns_) throw std::invalid_argument("CsvWriter: row width");
    std::vector<std::string> cells;
    cells.reserve(values.size());
    for (double v : values) cells.push_back(formatCsvDouble(v));
    writeCells(cells);
  }

  void row(const std::vector<std::string>& cells) {
    if (cells.size() != columns_) throw std::invalid_argument("CsvWriter: row width");
    writeCells(cells);
  }

 private:
  void writeCells(const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) out_ << ',';
      out_ << escapeCsvCell(cells[i]);
    }
    out_ << '\n';
  }

  std::ofstream out_;
  std::size_t columns_;
};

}  // namespace nano::util
