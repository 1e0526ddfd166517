#include "population/census_io.h"

#include <sstream>

#include "util/csv.h"
#include "util/error.h"
#include "util/strings.h"

namespace riskroute::population {

void WriteCensusCsv(const CensusModel& census, std::ostream& out) {
  util::CsvWriter csv(out);
  csv.Write("latitude", "longitude", "population", "state");
  for (const CensusBlock& block : census.blocks()) {
    csv.Write(util::Format("%.6f", block.centroid.latitude()),
              util::Format("%.6f", block.centroid.longitude()),
              util::Format("%.4f", block.population), block.state);
  }
}

std::string CensusToCsv(const CensusModel& census) {
  std::ostringstream os;
  WriteCensusCsv(census, os);
  return os.str();
}

CensusModel ReadCensusCsv(std::istream& in) {
  const std::vector<util::CsvRow> rows =
      util::ReadCsvResult(in).ValueOrThrow();
  if (rows.empty()) throw ParseError("census csv: empty input");
  const util::CsvRow expected_header = {"latitude", "longitude", "population",
                                        "state"};
  if (rows.front() != expected_header) {
    throw ParseError("census csv: unexpected header");
  }
  std::vector<CensusBlock> blocks;
  blocks.reserve(rows.size() - 1);
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const util::CsvRow& row = rows[r];
    if (row.size() != 4) {
      throw ParseError(util::Format("census csv row %zu: expected 4 fields",
                                    r + 1));
    }
    const auto lat = util::ParseDouble(row[0]);
    const auto lon = util::ParseDouble(row[1]);
    const auto pop = util::ParseDouble(row[2]);
    if (!lat || !lon || !pop || !geo::IsValidLatLon(*lat, *lon) ||
        !(*pop > 0.0)) {
      throw ParseError(util::Format("census csv row %zu: malformed values",
                                    r + 1));
    }
    blocks.push_back(CensusBlock{geo::GeoPoint(*lat, *lon), *pop, row[3]});
  }
  if (blocks.empty()) throw ParseError("census csv: no data rows");
  return CensusModel(std::move(blocks));
}

CensusModel CensusFromCsv(const std::string& text) {
  std::istringstream is(text);
  return ReadCensusCsv(is);
}

}  // namespace riskroute::population
