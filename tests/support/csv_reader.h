// RFC-4180 CSV reader matching util::CsvWriter: the golden-figure tests
// load the committed series back with it. No binary reads CSV, so it lives
// with the tests.
#pragma once

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace nano::util {

/// A parsed CSV file: the header row plus every data row as unescaped
/// string cells. Produced by parseCsvText / readCsvFile.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of `name` in the header, or -1 when absent.
  int columnIndex(const std::string& name) const {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return static_cast<int>(i);
    }
    return -1;
  }

  /// Cell (row, col) parsed as a double; throws on out-of-range indices
  /// or non-numeric text so golden comparisons fail loudly.
  double number(std::size_t row, std::size_t col) const {
    if (row >= rows.size() || col >= rows[row].size()) {
      throw std::out_of_range("CsvTable::number: cell out of range");
    }
    const std::string& cell = rows[row][col];
    char* end = nullptr;
    const double v = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() || *end != '\0') {
      throw std::invalid_argument("CsvTable::number: not numeric: " + cell);
    }
    return v;
  }
};

/// RFC-4180 parse of `text` (quoted cells, doubled quotes, embedded
/// newlines, optional CRLF line endings and missing final newline). The
/// first record becomes the header. Every data row must match the header
/// width; ragged input throws.
inline CsvTable parseCsvText(const std::string& text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string cell;
  bool quoted = false;
  bool cellStarted = false;
  auto endCell = [&] {
    record.push_back(std::move(cell));
    cell.clear();
    cellStarted = false;
  };
  auto endRecord = [&] {
    endCell();
    records.push_back(std::move(record));
    record.clear();
  };
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
    } else if (c == '"' && cell.empty() && !cellStarted) {
      quoted = true;
      cellStarted = true;
    } else if (c == ',') {
      endCell();
    } else if (c == '\n') {
      endRecord();
    } else if (c == '\r') {
      // CRLF (consume both) or a bare/final CR: either way the record ends
      // here, so a CRLF checkout whose last line lost its LF still parses.
      // Unquoted cells can never legitimately contain CR (the writer
      // quotes them), so treating CR as a terminator loses nothing.
      endRecord();
      if (i + 1 < text.size() && text[i + 1] == '\n') ++i;
    } else {
      cell.push_back(c);
      cellStarted = true;
    }
  }
  if (quoted) throw std::invalid_argument("parseCsvText: unterminated quote");
  if (cellStarted || !cell.empty() || !record.empty()) endRecord();
  CsvTable table;
  if (records.empty()) return table;
  table.header = std::move(records.front());
  for (std::size_t r = 1; r < records.size(); ++r) {
    if (records[r].size() != table.header.size()) {
      throw std::invalid_argument("parseCsvText: ragged row " +
                                  std::to_string(r));
    }
    table.rows.push_back(std::move(records[r]));
  }
  return table;
}

/// Load and parse a CSV file; throws when the file cannot be opened.
inline CsvTable readCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("readCsvFile: cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return parseCsvText(os.str());
}

}  // namespace nano::util
