// Minimal CSV reading/writing used by the bench harness to emit
// figure/table data, by catalog/census IO to load user archives, and by
// tests to round-trip generated data sets.
//
// Supports RFC-4180-style quoting: "..." with embedded commas, doubled
// quotes, and — in ReadCsvResult — newlines inside quoted fields (a
// quoted record continues across physical lines), so everything
// EscapeCsvField can write reads back losslessly. All readers enforce
// the defensive limits in CsvLimits and report failures as structured
// ParseResult diagnostics.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/parse_result.h"

namespace riskroute::util {

/// One parsed CSV row.
using CsvRow = std::vector<std::string>;

/// Defensive limits for untrusted CSV input. The defaults are generous
/// (far above anything this library writes) but finite, so a hostile
/// stream cannot drive unbounded allocation; exceeding one yields a
/// ParseErrorKind::kLimitExceeded diagnostic.
struct CsvLimits {
  std::size_t max_field_bytes = 1 << 20;    // 1 MiB per field
  std::size_t max_fields_per_row = 4096;    // columns per record
  std::size_t max_record_bytes = 4 << 20;   // one logical record (quoted
                                            // fields may span lines)
  std::size_t max_rows = 4 << 20;           // records per stream
};

/// Parses a single CSV record into fields. The input is one logical
/// record: a '\n' outside quotes is treated as an ordinary character
/// (callers that want multi-record parsing use ReadCsvResult). Fails
/// with kBadSyntax on an unterminated quoted field (the diagnostic
/// points at the opening quote) and kLimitExceeded past CsvLimits.
[[nodiscard]] ParseResult<CsvRow> ParseCsvLineResult(
    std::string_view line, const CsvLimits& limits = {});

/// Reads all records from a CSV stream. Quoted fields may contain
/// embedded newlines; a record only ends on a line break outside quotes.
/// Blank physical lines between records are skipped (no header handling;
/// callers skip row 0 themselves when appropriate). Records accepted and
/// rejects are counted under `ingest.csv.*`.
[[nodiscard]] ParseResult<std::vector<CsvRow>> ReadCsvResult(
    std::istream& in, const CsvLimits& limits = {});

/// Escapes a single field for CSV output (quotes it when needed).
[[nodiscard]] std::string EscapeCsvField(std::string_view field);

/// Streaming CSV writer. Write a header, then rows; fields are escaped.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void WriteRow(const CsvRow& row);

  /// Convenience: writes a row of heterogeneous printable values.
  template <typename... Ts>
  void Write(const Ts&... fields) {
    CsvRow row;
    row.reserve(sizeof...(fields));
    (row.push_back(ToField(fields)), ...);
    WriteRow(row);
  }

 private:
  static std::string ToField(const std::string& s) { return s; }
  static std::string ToField(const char* s) { return s; }
  static std::string ToField(double v);
  static std::string ToField(int v) { return std::to_string(v); }
  static std::string ToField(long v) { return std::to_string(v); }
  static std::string ToField(long long v) { return std::to_string(v); }
  static std::string ToField(std::size_t v) { return std::to_string(v); }

  std::ostream& out_;
};

}  // namespace riskroute::util
