#include "util/csv.h"

#include <istream>
#include <ostream>
#include <utility>

#include "util/error.h"
#include "util/parse_result.h"
#include "util/strings.h"

namespace riskroute::util {
namespace {

constexpr std::string_view kSource = "csv";

ParseDiagnostic LimitError(std::string message, std::size_t line,
                           std::size_t column) {
  ingest::CountRejected(kSource, ParseErrorKind::kLimitExceeded);
  return ParseDiagnostic{ParseErrorKind::kLimitExceeded, std::move(message), 0,
                         line, column};
}

}  // namespace

ParseResult<CsvRow> ParseCsvLineResult(std::string_view line,
                                       const CsvLimits& limits) {
  if (line.size() > limits.max_record_bytes) {
    return LimitError(
        Format("CSV record of %zu bytes exceeds the %zu-byte limit",
               line.size(), limits.max_record_bytes),
        0, 0);
  }
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  std::size_t open_quote_col = 0;  // 1-based column of the opening quote
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
      open_quote_col = i + 1;
    } else if (c == ',') {
      if (row.size() + 1 > limits.max_fields_per_row) {
        return LimitError(Format("CSV record exceeds %zu fields",
                                 limits.max_fields_per_row),
                          0, i + 1);
      }
      row.push_back(std::move(field));
      field.clear();
    } else {
      field.push_back(c);
    }
    if (field.size() > limits.max_field_bytes) {
      return LimitError(Format("CSV field exceeds %zu bytes",
                               limits.max_field_bytes),
                        0, i + 1);
    }
  }
  if (in_quotes) {
    ingest::CountRejected(kSource, ParseErrorKind::kBadSyntax);
    return ParseResult<CsvRow>::Failure(
        ParseErrorKind::kBadSyntax, "unterminated quoted CSV field",
        open_quote_col == 0 ? 0 : open_quote_col - 1, 0, open_quote_col);
  }
  // The final field is committed outside the comma branch, so it needs
  // its own limit check ("a,b,c" under a 2-field limit ends here).
  if (row.size() + 1 > limits.max_fields_per_row) {
    return LimitError(Format("CSV record exceeds %zu fields",
                             limits.max_fields_per_row),
                      0, line.size());
  }
  row.push_back(std::move(field));
  ingest::CountAccepted(kSource);
  return row;
}

ParseResult<std::vector<CsvRow>> ReadCsvResult(std::istream& in,
                                               const CsvLimits& limits) {
  using Result = ParseResult<std::vector<CsvRow>>;
  std::vector<CsvRow> rows;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line == "\r") continue;  // blank separator line
    const std::size_t record_line = line_no;
    CsvRow row;
    std::string field;
    bool in_quotes = false;
    std::size_t open_quote_line = 0, open_quote_col = 0;
    std::size_t record_bytes = 0;
    for (bool record_done = false; !record_done;) {
      record_bytes += line.size() + 1;
      if (record_bytes > limits.max_record_bytes) {
        return LimitError(
            Format("CSV record exceeds the %zu-byte limit",
                   limits.max_record_bytes),
            record_line, 0);
      }
      const std::size_t n = line.size();
      for (std::size_t i = 0; i < n; ++i) {
        const char c = line[i];
        if (in_quotes) {
          // Inside quotes every character is content — including '\r',
          // so "\r\n" written by EscapeCsvField reads back exactly.
          if (c == '"') {
            if (i + 1 < n && line[i + 1] == '"') {
              field.push_back('"');
              ++i;
            } else {
              in_quotes = false;
            }
          } else {
            field.push_back(c);
          }
        } else if (c == '"') {
          in_quotes = true;
          open_quote_line = line_no;
          open_quote_col = i + 1;
        } else if (c == ',') {
          if (row.size() + 1 > limits.max_fields_per_row) {
            return LimitError(Format("CSV record exceeds %zu fields",
                                     limits.max_fields_per_row),
                              line_no, i + 1);
          }
          row.push_back(std::move(field));
          field.clear();
        } else if (c == '\r' && i + 1 == n) {
          // CRLF line terminator outside quotes.
        } else {
          field.push_back(c);
        }
        if (field.size() > limits.max_field_bytes) {
          return LimitError(Format("CSV field exceeds %zu bytes",
                                   limits.max_field_bytes),
                            line_no, i + 1);
        }
      }
      if (in_quotes) {
        // The quoted field continues on the next physical line.
        if (!std::getline(in, line)) {
          ingest::CountRejected(kSource, ParseErrorKind::kBadSyntax);
          return Result::Failure(ParseErrorKind::kBadSyntax,
                                 "unterminated quoted CSV field", 0,
                                 open_quote_line, open_quote_col);
        }
        ++line_no;
        field.push_back('\n');
      } else {
        record_done = true;
      }
    }
    if (row.size() + 1 > limits.max_fields_per_row) {
      return LimitError(Format("CSV record exceeds %zu fields",
                               limits.max_fields_per_row),
                        record_line, 0);
    }
    row.push_back(std::move(field));
    if (rows.size() + 1 > limits.max_rows) {
      return LimitError(Format("CSV stream exceeds %zu records",
                               limits.max_rows),
                        line_no, 0);
    }
    rows.push_back(std::move(row));
  }
  ingest::CountAccepted(kSource, rows.size());
  return rows;
}

std::string EscapeCsvField(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvWriter::WriteRow(const CsvRow& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << EscapeCsvField(row[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::ToField(double v) { return Format("%.6g", v); }

}  // namespace riskroute::util
