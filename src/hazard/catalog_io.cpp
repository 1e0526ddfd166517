#include "hazard/catalog_io.h"

#include <map>
#include <sstream>
#include <utility>

#include "util/csv.h"
#include "util/error.h"
#include "util/strings.h"

namespace riskroute::hazard {
namespace {

constexpr std::string_view kSource = "catalog";

util::ParseResult<std::vector<Catalog>> Fail(util::ParseErrorKind kind,
                                             std::string message,
                                             std::size_t row = 0) {
  util::ingest::CountRejected(kSource, kind);
  return util::ParseResult<std::vector<Catalog>>::Failure(
      kind, std::move(message), 0, row);
}

}  // namespace

void WriteCatalogsCsv(const std::vector<Catalog>& catalogs,
                      std::ostream& out) {
  util::CsvWriter csv(out);
  csv.Write("type", "latitude", "longitude", "year", "month");
  for (const Catalog& catalog : catalogs) {
    const std::string type(ToString(catalog.type()));
    for (const Event& event : catalog.events()) {
      csv.Write(type, util::Format("%.6f", event.location.latitude()),
                util::Format("%.6f", event.location.longitude()), event.year,
                event.month);
    }
  }
}

std::string CatalogsToCsv(const std::vector<Catalog>& catalogs) {
  std::ostringstream os;
  WriteCatalogsCsv(catalogs, os);
  return os.str();
}

util::ParseResult<std::vector<Catalog>> ReadCatalogsCsvResult(
    std::istream& in, const CatalogCsvLimits& limits) {
  util::CsvLimits csv_limits;
  csv_limits.max_rows = limits.max_rows + 1;  // + header
  auto parsed = util::ReadCsvResult(in, csv_limits);
  if (!parsed.ok()) {
    util::ingest::CountRejected(kSource, parsed.error().kind);
    return parsed.error();
  }
  const std::vector<util::CsvRow>& rows = parsed.value();
  if (rows.empty()) {
    return Fail(util::ParseErrorKind::kEmptyInput, "catalog csv: empty input");
  }
  const util::CsvRow expected_header = {"type", "latitude", "longitude",
                                        "year", "month"};
  if (rows.front() != expected_header) {
    return Fail(util::ParseErrorKind::kBadHeader,
                "catalog csv: unexpected header", 1);
  }
  // Group events by type, preserving first-appearance order.
  std::vector<HazardType> order;
  std::map<HazardType, std::vector<Event>> grouped;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const util::CsvRow& row = rows[r];
    const std::size_t row_no = r + 1;
    if (row.size() != 5) {
      return Fail(util::ParseErrorKind::kBadSyntax,
                  util::Format("catalog csv row %zu: expected 5 fields, got "
                               "%zu",
                               row_no, row.size()),
                  row_no);
    }
    const auto type = ParseHazardType(row[0]);
    if (!type) {
      return Fail(util::ParseErrorKind::kBadValue,
                  util::Format("catalog csv row %zu: unknown hazard type "
                               "'%s'",
                               row_no, row[0].c_str()),
                  row_no);
    }
    const auto lat = util::ParseDouble(row[1]);
    const auto lon = util::ParseDouble(row[2]);
    const auto year = util::ParseInt(row[3]);
    const auto month = util::ParseInt(row[4]);
    if (!lat || !lon || !year || !month) {
      return Fail(util::ParseErrorKind::kBadNumber,
                  util::Format("catalog csv row %zu: malformed numeric "
                               "field",
                               row_no),
                  row_no);
    }
    if (!geo::IsValidLatLon(*lat, *lon)) {
      return Fail(util::ParseErrorKind::kBadValue,
                  util::Format("catalog csv row %zu: invalid coordinates "
                               "(%s, %s)",
                               row_no, row[1].c_str(), row[2].c_str()),
                  row_no);
    }
    // Validate the year window before narrowing to int: a raw cast used
    // to truncate absurd values (negative years, > 4-digit eras) silently.
    if (*year < limits.min_year || *year > limits.max_year) {
      return Fail(util::ParseErrorKind::kBadValue,
                  util::Format("catalog csv row %zu: year %lld outside "
                               "[%lld, %lld]",
                               row_no, *year, limits.min_year,
                               limits.max_year),
                  row_no);
    }
    if (*month < 1 || *month > 12) {
      return Fail(util::ParseErrorKind::kBadValue,
                  util::Format("catalog csv row %zu: month %lld outside "
                               "[1, 12]",
                               row_no, *month),
                  row_no);
    }
    if (!grouped.contains(*type)) order.push_back(*type);
    grouped[*type].push_back(Event{geo::GeoPoint(*lat, *lon),
                                   static_cast<int>(*year),
                                   static_cast<int>(*month)});
  }
  std::vector<Catalog> catalogs;
  catalogs.reserve(order.size());
  for (const HazardType type : order) {
    catalogs.emplace_back(type, std::move(grouped[type]));
  }
  util::ingest::CountAccepted(kSource, rows.size() - 1);
  return catalogs;
}

std::vector<Catalog> CatalogsFromCsv(const std::string& text) {
  std::istringstream is(text);
  return ReadCatalogsCsvResult(is).ValueOrThrow();
}

}  // namespace riskroute::hazard
