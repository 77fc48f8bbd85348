#ifndef P2PDT_COMMON_CSV_H_
#define P2PDT_COMMON_CSV_H_

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace p2pdt {

/// Minimal CSV table builder used by the P2PDMT statistics exporter and the
/// benchmark harness to persist experiment series.
///
/// Values containing commas, quotes or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// One row built column by column, so each column is named exactly once,
  /// next to its value:
  ///
  ///   CsvWriter::Row row;
  ///   row.Add("macro_f1", f1).Flag("reliable", on).Hex("fingerprint", fp);
  ///
  /// Formats: doubles %.6g, integers in decimal, flags 0/1, fingerprints as
  /// 16 lower-case hex digits.
  class Row {
   public:
    Row& Add(std::string column, std::string value);
    Row& Add(std::string column, const char* value);
    Row& Add(std::string column, double value);
    template <typename T, std::enable_if_t<std::is_integral_v<T> &&
                                               !std::is_same_v<T, bool>,
                                           int> = 0>
    Row& Add(std::string column, T value) {
      return Add(std::move(column), std::to_string(value));
    }
    /// A bool goes through Flag; deleted so it cannot silently convert to
    /// one of the numeric overloads above.
    Row& Add(std::string column, bool value) = delete;
    Row& Flag(std::string column, bool value);
    Row& Hex(std::string column, unsigned long long value);

    const std::vector<std::string>& columns() const { return columns_; }
    const std::vector<std::string>& values() const { return values_; }

   private:
    std::vector<std::string> columns_;
    std::vector<std::string> values_;
  };

  /// A table whose first AddRow(Row) fixes the header.
  CsvWriter() = default;
  explicit CsvWriter(std::vector<std::string> header);

  std::size_t num_columns() const { return header_.size(); }
  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Appends a row; must match the header width.
  Status AddRow(std::vector<std::string> row);

  /// Appends a built row. The first row of a table without a header sets
  /// the header; after that a row must name the same columns in the same
  /// order, or it is rejected with kInvalidArgument.
  Status AddRow(const Row& row);

  /// Convenience: formats doubles with %.6g.
  Status AddNumericRow(const std::vector<double>& row);

  /// Renders the full table, header first, '\n' line endings.
  std::string ToString() const;

  /// Writes the table to `path`, replacing any existing file.
  Status WriteFile(const std::string& path) const;

  /// One rendered line: fields escaped, comma-joined, '\n'-terminated.
  static std::string FormatLine(const std::vector<std::string>& fields);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Escapes one CSV field per RFC 4180 (quotes only when needed).
std::string CsvEscape(const std::string& field);

}  // namespace p2pdt

#endif  // P2PDT_COMMON_CSV_H_
