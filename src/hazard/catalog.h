// Historical natural-disaster event catalogs (paper Section 4.3).
//
// The paper draws on FEMA emergency declarations (1970-2010, county-level)
// for severe storms, tornadoes and hurricanes, and NOAA records for wind
// damage and earthquakes. A catalog here is simply a typed list of
// geolocated, dated events.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "geo/geo_point.h"

namespace riskroute::hazard {

/// The five event classes the paper's risk analysis uses.
enum class HazardType {
  kFemaHurricane,
  kFemaTornado,
  kFemaStorm,
  kNoaaEarthquake,
  kNoaaWind,
};

/// All hazard types, in the paper's Table 1 order.
[[nodiscard]] const std::vector<HazardType>& AllHazardTypes();

[[nodiscard]] std::string_view ToString(HazardType type);
[[nodiscard]] std::optional<HazardType> ParseHazardType(std::string_view s);

/// The paper's event count for each catalog (Section 4.3 / Table 1).
[[nodiscard]] std::size_t PaperEventCount(HazardType type);

/// Physical damage footprint per hazard class (statute miles). Rough
/// figures consistent with the events' phenomenology: hurricanes devastate
/// wide swaths, tornadoes and localized wind events narrow tracks.
[[nodiscard]] double DefaultDamageRadiusMiles(HazardType type);

/// One historical event.
struct Event {
  geo::GeoPoint location;
  int year = 1970;
  int month = 6;  // 1-12
};

/// A typed event catalog.
class Catalog {
 public:
  Catalog(HazardType type, std::vector<Event> events);

  [[nodiscard]] HazardType type() const { return type_; }
  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Event locations only (the KDE input).
  [[nodiscard]] std::vector<geo::GeoPoint> Locations() const;

  /// Events within [first_year, last_year] inclusive.
  [[nodiscard]] Catalog FilterYears(int first_year, int last_year) const;

  /// Events whose month is in [first_month, last_month] inclusive
  /// (1-12; wrapping ranges like Nov-Feb are expressed as 11, 2).
  [[nodiscard]] Catalog FilterMonths(int first_month, int last_month) const;

 private:
  HazardType type_;
  std::vector<Event> events_;
};

}  // namespace riskroute::hazard
