// CSV persistence for hazard catalogs.
//
// Lets users export the synthetic catalogs for inspection/plotting and —
// more importantly — load their own event archives (FEMA/NOAA extracts
// are naturally tabular) into the framework. Format:
//
//   type,latitude,longitude,year,month
//   FEMA Hurricane,29.9500,-90.0700,2005,8
//
// One file may mix types; ReadCatalogs splits them back out. The reader
// treats the stream as untrusted: malformed rows, unknown types, invalid
// coordinates, out-of-range years/months and oversized inputs all yield
// row-numbered ParseResult diagnostics.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "hazard/catalog.h"
#include "util/parse_result.h"

namespace riskroute::hazard {

/// Writes catalogs as CSV with a header row.
void WriteCatalogsCsv(const std::vector<Catalog>& catalogs, std::ostream& out);
[[nodiscard]] std::string CatalogsToCsv(const std::vector<Catalog>& catalogs);

/// Defensive limits for untrusted catalog CSVs. The year window rejects
/// absurd values (negative years, five-digit "eras") that previously
/// truncated silently through a raw int cast; both digitized archives
/// (HURDAT reaches back to 1851) and projected futures fit comfortably.
struct CatalogCsvLimits {
  std::size_t max_rows = 1u << 21;  // ~2M events
  long long min_year = 1;
  long long max_year = 9999;
};

/// Parses the CSV format above (header required). Rows are grouped by
/// type, in order of first appearance. Diagnostics carry the 1-based CSV
/// row number in `line`; accepted rows / rejects are counted under
/// `ingest.catalog.*`.
[[nodiscard]] util::ParseResult<std::vector<Catalog>> ReadCatalogsCsvResult(
    std::istream& in, const CatalogCsvLimits& limits = {});

/// Parses CSV text; throws ParseError with the rendered diagnostic on
/// malformed rows, unknown types, or invalid coordinates/months/years.
[[nodiscard]] std::vector<Catalog> CatalogsFromCsv(const std::string& text);

}  // namespace riskroute::hazard
