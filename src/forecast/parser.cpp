#include "forecast/parser.h"

#include <array>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "geo/geo_point.h"
#include "util/error.h"
#include "util/strings.h"

namespace riskroute::forecast {
namespace {

constexpr std::string_view kSource = "advisory";

/// Splits bulletin text into upper-case word tokens. Ellipsis runs ("..."
/// or longer) act as separators; a single trailing period is stripped from
/// sentence-final tokens while decimal numbers ("35.2") stay intact.
std::vector<std::string> Tokenize(std::string_view text) {
  std::string upper = util::ToUpper(text);
  std::string spaced;
  spaced.reserve(upper.size());
  for (std::size_t i = 0; i < upper.size();) {
    if (upper[i] == '.' && i + 1 < upper.size() && upper[i + 1] == '.') {
      spaced.push_back(' ');
      while (i < upper.size() && upper[i] == '.') ++i;
    } else {
      spaced.push_back(upper[i]);
      ++i;
    }
  }
  std::vector<std::string> tokens = util::SplitWhitespace(spaced);
  for (std::string& token : tokens) {
    while (!token.empty() && (token.back() == '.' || token.back() == ',')) {
      token.pop_back();
    }
  }
  std::erase_if(tokens, [](const std::string& t) { return t.empty(); });
  return tokens;
}

/// Finite-only numeric lookup: "NAN" and "INF" parse as doubles but must
/// never enter the risk model (a NaN radius poisons every downstream
/// comparison), so they read as "not a number here".
std::optional<double> NumberAt(const std::vector<std::string>& tokens,
                               std::size_t i) {
  if (i >= tokens.size()) return std::nullopt;
  const auto value = util::ParseDouble(tokens[i]);
  if (value && !std::isfinite(*value)) return std::nullopt;
  return value;
}

bool Matches(const std::vector<std::string>& tokens, std::size_t i,
             std::initializer_list<const char*> phrase) {
  std::size_t k = i;
  for (const char* word : phrase) {
    if (k >= tokens.size() || tokens[k] != word) return false;
    ++k;
  }
  return true;
}

int MonthFromToken(const std::string& token) {
  static constexpr std::array<const char*, 12> months = {
      "JAN", "FEB", "MAR", "APR", "MAY", "JUN",
      "JUL", "AUG", "SEP", "OCT", "NOV", "DEC"};
  for (std::size_t m = 0; m < months.size(); ++m) {
    if (token.rfind(months[m], 0) == 0) return static_cast<int>(m) + 1;
  }
  return 0;
}

bool IsWeekday(const std::string& token) {
  static constexpr std::array<const char*, 7> days = {
      "SUN", "MON", "TUE", "WED", "THU", "FRI", "SAT"};
  for (const char* d : days) {
    if (token.rfind(d, 0) == 0) return true;
  }
  return false;
}

util::ParseResult<Advisory> Fail(util::ParseErrorKind kind,
                                 std::string message) {
  util::ingest::CountRejected(kSource, kind);
  return util::ParseResult<Advisory>::Failure(kind, std::move(message));
}

}  // namespace

util::ParseResult<Advisory> ParseAdvisoryResult(std::string_view text,
                                                const AdvisoryLimits& limits) {
  if (text.size() > limits.max_bytes) {
    return Fail(util::ParseErrorKind::kLimitExceeded,
                util::Format("advisory: %zu-byte bulletin exceeds the "
                             "%zu-byte limit",
                             text.size(), limits.max_bytes));
  }
  const std::vector<std::string> tokens = Tokenize(text);
  if (tokens.size() > limits.max_tokens) {
    return Fail(util::ParseErrorKind::kLimitExceeded,
                util::Format("advisory: %zu tokens exceed the %zu-token limit",
                             tokens.size(), limits.max_tokens));
  }
  Advisory advisory;
  bool have_name = false, have_lat = false, have_lon = false;
  bool have_tropical = false;
  double lat = 0.0, lon = 0.0;

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    // "HURRICANE IRENE ADVISORY NUMBER 23" / "TROPICAL STORM SANDY ADVISORY..."
    if (!have_name && i + 3 < tokens.size() &&
        (tokens[i] == "HURRICANE" ||
         (tokens[i] == "STORM" && i > 0 && tokens[i - 1] == "TROPICAL")) &&
        tokens[i + 2] == "ADVISORY" && tokens[i + 3] == "NUMBER") {
      advisory.storm_name = tokens[i + 1];
      have_name = true;
      // The float->int cast is UB outside int's range, so gate it to a
      // plausible advisory-number window first.
      if (const auto number = NumberAt(tokens, i + 4);
          number && *number >= 0.0 && *number <= 1e6) {
        advisory.number = static_cast<int>(*number);
      }
    }
    // "LATITUDE 35.2 NORTH"
    if (tokens[i] == "LATITUDE") {
      if (const auto value = NumberAt(tokens, i + 1)) {
        const bool south = i + 2 < tokens.size() && tokens[i + 2] == "SOUTH";
        lat = south ? -*value : *value;
        have_lat = true;
      }
    }
    // "LONGITUDE 76.4 WEST"
    if (tokens[i] == "LONGITUDE") {
      if (const auto value = NumberAt(tokens, i + 1)) {
        const bool west = i + 2 < tokens.size() && tokens[i + 2] == "WEST";
        lon = west ? -*value : *value;
        have_lon = true;
      }
    }
    // "MOVING TOWARD THE NORTH-NORTHEAST NEAR 15 MPH"
    if (Matches(tokens, i, {"MOVING", "TOWARD", "THE"}) &&
        i + 5 < tokens.size() && tokens[i + 4] == "NEAR") {
      advisory.motion_direction = tokens[i + 3];
      if (const auto speed = NumberAt(tokens, i + 5)) {
        advisory.motion_mph = *speed;
      }
    }
    // "MAXIMUM SUSTAINED WINDS ARE NEAR 85 MPH"
    if (Matches(tokens, i, {"MAXIMUM", "SUSTAINED", "WINDS", "ARE", "NEAR"})) {
      if (const auto wind = NumberAt(tokens, i + 5)) {
        advisory.max_wind_mph = *wind;
      }
    }
    // "HURRICANE-FORCE WINDS EXTEND OUTWARD UP TO 90 MILES"
    if (tokens[i] == "HURRICANE-FORCE" &&
        Matches(tokens, i + 1, {"WINDS", "EXTEND", "OUTWARD", "UP", "TO"})) {
      if (const auto radius = NumberAt(tokens, i + 6);
          radius && i + 7 < tokens.size() && tokens[i + 7] == "MILES") {
        advisory.hurricane_wind_radius_miles = *radius;
      }
    }
    // "TROPICAL-STORM-FORCE WINDS EXTEND OUTWARD UP TO 260 MILES"
    if (tokens[i] == "TROPICAL-STORM-FORCE" &&
        Matches(tokens, i + 1, {"WINDS", "EXTEND", "OUTWARD", "UP", "TO"})) {
      if (const auto radius = NumberAt(tokens, i + 6);
          radius && i + 7 < tokens.size() && tokens[i + 7] == "MILES") {
        advisory.tropical_wind_radius_miles = *radius;
        have_tropical = true;
      }
    }
    // Timestamp: "<hhmm> AM|PM <TZ> <DOW> <MON> <day> <year>"
    if (i + 6 < tokens.size() && (tokens[i + 1] == "AM" || tokens[i + 1] == "PM") &&
        IsWeekday(tokens[i + 3]) && MonthFromToken(tokens[i + 4]) != 0) {
      const auto clock = util::ParseInt(tokens[i]);
      const auto day = util::ParseInt(tokens[i + 5]);
      const auto year = util::ParseInt(tokens[i + 6]);
      // Range-check before narrowing: an implausible clock/day/year is
      // ignored (the advisory keeps the default timestamp) instead of
      // storing a civil time that PlusHours/ToString would reject.
      if (clock && day && year && *clock >= 100 && *clock <= 1259 &&
          *clock % 100 < 60 && *day >= 1 && *day <= 31 && *year >= 1 &&
          *year <= 9999) {
        int hour = static_cast<int>(*clock / 100);
        if (hour == 12) hour = 0;
        if (tokens[i + 1] == "PM") hour += 12;
        AdvisoryTime time;
        time.hour = hour;
        time.timezone = tokens[i + 2];
        time.month = MonthFromToken(tokens[i + 4]);
        time.day = static_cast<int>(*day);
        time.year = static_cast<int>(*year);
        if (IsValidCivil(time)) advisory.time = std::move(time);
      }
    }
  }

  if (!have_name) {
    return Fail(util::ParseErrorKind::kMissingField,
                "advisory: storm name not found");
  }
  if (!have_lat || !have_lon) {
    return Fail(util::ParseErrorKind::kMissingField,
                "advisory: centre coordinates not found");
  }
  if (!have_tropical) {
    return Fail(util::ParseErrorKind::kMissingField,
                "advisory: tropical-storm wind radius not found");
  }
  if (!geo::IsValidLatLon(lat, lon)) {
    return Fail(util::ParseErrorKind::kBadValue,
                util::Format("advisory: centre (%g, %g) is not a valid "
                             "latitude/longitude",
                             lat, lon));
  }
  advisory.center = geo::GeoPoint(lat, lon);
  util::ingest::CountAccepted(kSource);
  return advisory;
}

}  // namespace riskroute::forecast
