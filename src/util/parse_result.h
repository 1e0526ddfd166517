// Structured parse errors for the ingestion boundary.
//
// Every parser that consumes untrusted text (advisory bulletins, catalog
// and census CSVs, CLI arguments) returns ParseResult<T>: either the
// parsed value or a ParseDiagnostic carrying a machine-readable error
// kind plus the byte offset / line / column where parsing failed. The
// fuzz harnesses under fuzz/ drive these entry points directly — a
// hostile input must surface as a diagnostic, never as an uncaught
// exception, signed-overflow UB, or an unbounded allocation.
//
// Call sites that want a throw call ValueOrThrow() on the result, which
// renders the diagnostic into the ParseError message.
//
// Accepted/rejected record counts are exported through the PR-3 metrics
// registry under `ingest.<source>.*` (see IngestCounter below); parsing
// is deterministic, so the counters land in the "stable" section of the
// metrics export.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace riskroute::util {

/// Machine-readable failure category. Kept deliberately coarse: callers
/// branch on the kind (and metrics bucket by it); the human detail lives
/// in ParseDiagnostic::message.
enum class ParseErrorKind {
  kEmptyInput,     // nothing to parse where content is required
  kBadSyntax,      // structurally malformed (unterminated quote, bad row)
  kBadHeader,      // header row missing or unexpected
  kBadNumber,      // a numeric field failed to parse
  kBadValue,       // parsed, but semantically invalid (range, enum, NaN)
  kMissingField,   // a required field is absent
  kLimitExceeded,  // a defensive size/row/length limit was hit
  kUnknownOption,  // undeclared command-line flag
  kMissingValue,   // a flag that takes a value got none
};

/// Stable token for metric names and rendered diagnostics.
[[nodiscard]] constexpr const char* ToString(ParseErrorKind kind) {
  switch (kind) {
    case ParseErrorKind::kEmptyInput: return "empty_input";
    case ParseErrorKind::kBadSyntax: return "bad_syntax";
    case ParseErrorKind::kBadHeader: return "bad_header";
    case ParseErrorKind::kBadNumber: return "bad_number";
    case ParseErrorKind::kBadValue: return "bad_value";
    case ParseErrorKind::kMissingField: return "missing_field";
    case ParseErrorKind::kLimitExceeded: return "limit_exceeded";
    case ParseErrorKind::kUnknownOption: return "unknown_option";
    case ParseErrorKind::kMissingValue: return "missing_value";
  }
  return "unknown";
}

/// Where and why a parse failed. line/column are 1-based; 0 means the
/// position axis does not apply (token streams, argv).
struct ParseDiagnostic {
  ParseErrorKind kind = ParseErrorKind::kBadSyntax;
  std::string message;
  std::size_t byte_offset = 0;
  std::size_t line = 0;
  std::size_t column = 0;

  /// "unterminated quoted field (line 3, column 7) [bad_syntax]"
  [[nodiscard]] std::string Render() const {
    std::string out = message;
    if (line != 0) {
      out += Format(" (line %zu", line);
      if (column != 0) out += Format(", column %zu", column);
      out += ")";
    }
    out += " [";
    out += ToString(kind);
    out += "]";
    return out;
  }
};

/// std::expected-style value-or-diagnostic. Implicitly constructible from
/// either side so parsers can `return row;` / `return diag;` directly.
template <typename T>
class [[nodiscard]] ParseResult {
 public:
  ParseResult(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  ParseResult(ParseDiagnostic diag)
      : state_(std::in_place_index<1>, std::move(diag)) {}

  /// Shorthand for the failure side.
  [[nodiscard]] static ParseResult Failure(ParseErrorKind kind,
                                           std::string message,
                                           std::size_t byte_offset = 0,
                                           std::size_t line = 0,
                                           std::size_t column = 0) {
    return ParseResult(ParseDiagnostic{kind, std::move(message), byte_offset,
                                       line, column});
  }

  [[nodiscard]] bool ok() const { return state_.index() == 0; }
  [[nodiscard]] explicit operator bool() const { return ok(); }

  [[nodiscard]] T& value() {
    Require(ok(), "ParseResult::value() on an error result");
    return std::get<0>(state_);
  }
  [[nodiscard]] const T& value() const {
    Require(ok(), "ParseResult::value() on an error result");
    return std::get<0>(state_);
  }

  [[nodiscard]] const ParseDiagnostic& error() const {
    Require(!ok(), "ParseResult::error() on a success result");
    return std::get<1>(state_);
  }

  /// Bridges to the legacy throwing contract: the value, or ParseError
  /// with the rendered diagnostic as its message.
  [[nodiscard]] T ValueOrThrow() && {
    if (!ok()) throw ParseError(std::get<1>(state_).Render());
    return std::move(std::get<0>(state_));
  }
  [[nodiscard]] const T& ValueOrThrow() const& {
    if (!ok()) throw ParseError(std::get<1>(state_).Render());
    return std::get<0>(state_);
  }

 private:
  static void Require(bool condition, const char* what) {
    if (!condition) throw InternalError(what);
  }

  std::variant<T, ParseDiagnostic> state_;
};

namespace ingest {

/// Counter `ingest.<source>.<metric>` in the global registry. Parsing is
/// a pure function of the input bytes, so these are Stability::kStable.
[[nodiscard]] inline obs::Counter& IngestCounter(std::string_view source,
                                                 std::string_view metric) {
  std::string name = "ingest.";
  name += source;
  name += '.';
  name += metric;
  return obs::MetricsRegistry::Global().GetCounter(name);
}

/// Records `n` accepted records for `source` (e.g. "csv", "advisory").
inline void CountAccepted(std::string_view source, std::uint64_t n = 1) {
  if (!obs::Enabled()) return;
  IngestCounter(source, "accepted").Add(n);
}

/// Records one rejected parse for `source`, bucketed by error kind:
/// `ingest.<source>.rejects.<kind>`.
inline void CountRejected(std::string_view source, ParseErrorKind kind) {
  if (!obs::Enabled()) return;
  std::string metric = "rejects.";
  metric += ToString(kind);
  IngestCounter(source, metric).Add(1);
}

}  // namespace ingest
}  // namespace riskroute::util
