#include "common/csv.h"

#include <cstdio>

#include "common/string_util.h"

namespace p2pdt {

namespace {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

CsvWriter::Row& CsvWriter::Row::Add(std::string column, std::string value) {
  columns_.push_back(std::move(column));
  values_.push_back(std::move(value));
  return *this;
}

CsvWriter::Row& CsvWriter::Row::Add(std::string column, const char* value) {
  return Add(std::move(column), std::string(value));
}

CsvWriter::Row& CsvWriter::Row::Add(std::string column, double value) {
  return Add(std::move(column), FormatDouble(value));
}

CsvWriter::Row& CsvWriter::Row::Flag(std::string column, bool value) {
  return Add(std::move(column), value ? "1" : "0");
}

CsvWriter::Row& CsvWriter::Row::Hex(std::string column,
                                    unsigned long long value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", value);
  return Add(std::move(column), std::string(buf));
}

CsvWriter::CsvWriter(std::vector<std::string> header)
    : header_(std::move(header)) {}

Status CsvWriter::AddRow(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    return Status::InvalidArgument("CSV row width " +
                                   std::to_string(row.size()) +
                                   " != header width " +
                                   std::to_string(header_.size()));
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status CsvWriter::AddRow(const Row& row) {
  if (header_.empty() && rows_.empty()) {
    header_ = row.columns();
  } else if (row.columns() != header_) {
    return Status::InvalidArgument(
        "CSV row columns (" + FormatLine(row.columns()) +
        ") differ from the header (" + FormatLine(header_) + ")");
  }
  rows_.push_back(row.values());
  return Status::OK();
}

Status CsvWriter::AddNumericRow(const std::vector<double>& row) {
  std::vector<std::string> formatted;
  formatted.reserve(row.size());
  for (double v : row) formatted.push_back(FormatDouble(v));
  return AddRow(std::move(formatted));
}

std::string CsvWriter::FormatLine(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ',';
    out += CsvEscape(fields[i]);
  }
  out += '\n';
  return out;
}

std::string CsvWriter::ToString() const {
  std::string out = FormatLine(header_);
  for (const auto& row : rows_) out += FormatLine(row);
  return out;
}

Status CsvWriter::WriteFile(const std::string& path) const {
  return WriteStringToFile(path, ToString());
}

std::string CsvEscape(const std::string& field) {
  bool needs_quoting = false;
  for (char c : field) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quoting = true;
      break;
    }
  }
  if (!needs_quoting) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace p2pdt
