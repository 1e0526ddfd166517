#include "hazard/catalog.h"

#include "util/error.h"

namespace riskroute::hazard {

const std::vector<HazardType>& AllHazardTypes() {
  static const std::vector<HazardType> all = {
      HazardType::kFemaHurricane, HazardType::kFemaTornado,
      HazardType::kFemaStorm, HazardType::kNoaaEarthquake,
      HazardType::kNoaaWind};
  return all;
}

std::string_view ToString(HazardType type) {
  switch (type) {
    case HazardType::kFemaHurricane:
      return "FEMA Hurricane";
    case HazardType::kFemaTornado:
      return "FEMA Tornado";
    case HazardType::kFemaStorm:
      return "FEMA Storm";
    case HazardType::kNoaaEarthquake:
      return "NOAA Earthquake";
    case HazardType::kNoaaWind:
      return "NOAA Wind";
  }
  throw InternalError("unknown HazardType");
}

std::optional<HazardType> ParseHazardType(std::string_view s) {
  for (const HazardType type : AllHazardTypes()) {
    if (ToString(type) == s) return type;
  }
  return std::nullopt;
}

std::size_t PaperEventCount(HazardType type) {
  switch (type) {
    case HazardType::kFemaHurricane:
      return 2805;
    case HazardType::kFemaTornado:
      return 6437;
    case HazardType::kFemaStorm:
      return 20623;
    case HazardType::kNoaaEarthquake:
      return 2267;
    case HazardType::kNoaaWind:
      return 143847;
  }
  throw InternalError("unknown HazardType");
}

double DefaultDamageRadiusMiles(HazardType type) {
  switch (type) {
    case HazardType::kFemaHurricane:
      return 120.0;
    case HazardType::kFemaTornado:
      return 25.0;
    case HazardType::kFemaStorm:
      return 60.0;
    case HazardType::kNoaaEarthquake:
      return 80.0;
    case HazardType::kNoaaWind:
      return 15.0;
  }
  throw InternalError("unknown HazardType");
}

Catalog::Catalog(HazardType type, std::vector<Event> events)
    : type_(type), events_(std::move(events)) {
  if (events_.empty()) throw InvalidArgument("Catalog: no events");
}

std::vector<geo::GeoPoint> Catalog::Locations() const {
  std::vector<geo::GeoPoint> out;
  out.reserve(events_.size());
  for (const Event& e : events_) out.push_back(e.location);
  return out;
}

Catalog Catalog::FilterYears(int first_year, int last_year) const {
  std::vector<Event> kept;
  for (const Event& e : events_) {
    if (e.year >= first_year && e.year <= last_year) kept.push_back(e);
  }
  return Catalog(type_, std::move(kept));
}

Catalog Catalog::FilterMonths(int first_month, int last_month) const {
  if (first_month < 1 || first_month > 12 || last_month < 1 ||
      last_month > 12) {
    throw InvalidArgument("FilterMonths: months must be in 1..12");
  }
  std::vector<Event> kept;
  for (const Event& e : events_) {
    const bool inside = first_month <= last_month
                            ? (e.month >= first_month && e.month <= last_month)
                            : (e.month >= first_month || e.month <= last_month);
    if (inside) kept.push_back(e);
  }
  return Catalog(type_, std::move(kept));
}

}  // namespace riskroute::hazard
