// Unit tests for the forecast module: advisory time arithmetic, NHC text
// writer/parser round-trips (the paper's Section 4.4 NLP path), the
// embedded storm tracks, and the forecast risk / storm scope model.
#include <gtest/gtest.h>

#include "forecast/advisory.h"
#include "forecast/forecast_risk.h"
#include "forecast/parser.h"
#include "forecast/tracks.h"
#include "forecast/writer.h"
#include "geo/distance.h"
#include "util/error.h"

namespace riskroute::forecast {
namespace {

// ---------- advisory time ----------

TEST(AdvisoryTime, PlusHoursRollsDays) {
  const AdvisoryTime t{2005, 8, 31, 22, "EDT"};
  const AdvisoryTime u = t.PlusHours(5);
  EXPECT_EQ(u.month, 9);
  EXPECT_EQ(u.day, 1);
  EXPECT_EQ(u.hour, 3);
}

TEST(AdvisoryTime, PlusHoursRollsYears) {
  const AdvisoryTime t{2012, 12, 31, 23, "EST"};
  const AdvisoryTime u = t.PlusHours(2);
  EXPECT_EQ(u.year, 2013);
  EXPECT_EQ(u.month, 1);
  EXPECT_EQ(u.day, 1);
  EXPECT_EQ(u.hour, 1);
}

TEST(AdvisoryTime, LeapYearFebruary) {
  const AdvisoryTime t{2012, 2, 28, 23, "EST"};
  EXPECT_EQ(t.PlusHours(2).day, 29);       // 2012 is a leap year
  const AdvisoryTime u{2011, 2, 28, 23, "EST"};
  EXPECT_EQ(u.PlusHours(2).day, 1);
  EXPECT_EQ(u.PlusHours(2).month, 3);
}

TEST(AdvisoryTime, NegativeHours) {
  const AdvisoryTime t{2012, 1, 1, 1, "EST"};
  const AdvisoryTime u = t.PlusHours(-3);
  EXPECT_EQ(u.year, 2011);
  EXPECT_EQ(u.month, 12);
  EXPECT_EQ(u.day, 31);
  EXPECT_EQ(u.hour, 22);
}

TEST(AdvisoryTime, KnownWeekdays) {
  // Hurricane Katrina's Louisiana landfall was Monday, Aug 29 2005.
  EXPECT_EQ((AdvisoryTime{2005, 8, 29, 6, "CDT"}.DayOfWeek()), 1);
  // Sandy's landfall: Monday, Oct 29 2012.
  EXPECT_EQ((AdvisoryTime{2012, 10, 29, 20, "EDT"}.DayOfWeek()), 1);
}

TEST(AdvisoryTime, ToStringFormat) {
  const AdvisoryTime t{2011, 8, 26, 11, "EDT"};
  EXPECT_EQ(t.ToString(), "1100 AM EDT FRI AUG 26 2011");
  const AdvisoryTime noon{2011, 8, 26, 12, "EDT"};
  EXPECT_EQ(noon.ToString(), "1200 PM EDT FRI AUG 26 2011");
  const AdvisoryTime midnight{2011, 8, 26, 0, "EDT"};
  EXPECT_EQ(midnight.ToString(), "1200 AM EDT FRI AUG 26 2011");
}

// ---------- writer & parser ----------

Advisory SampleAdvisory() {
  Advisory advisory;
  advisory.storm_name = "IRENE";
  advisory.number = 23;
  advisory.time = AdvisoryTime{2011, 8, 26, 11, "EDT"};
  advisory.center = geo::GeoPoint(35.2, -76.4);
  advisory.max_wind_mph = 85;
  advisory.hurricane_wind_radius_miles = 90;
  advisory.tropical_wind_radius_miles = 260;
  advisory.motion_direction = "NORTH-NORTHEAST";
  advisory.motion_mph = 15;
  return advisory;
}

TEST(Writer, EmitsPaperQuotedPhrases) {
  const std::string text = RenderAdvisory(SampleAdvisory());
  // The exact phrases the paper's Section 4.4 excerpt shows.
  EXPECT_NE(text.find("THE CENTER OF HURRICANE IRENE WAS LOCATED"),
            std::string::npos);
  EXPECT_NE(text.find("LATITUDE 35.2 NORTH"), std::string::npos);
  EXPECT_NE(text.find("LONGITUDE 76.4 WEST"), std::string::npos);
  EXPECT_NE(text.find("HURRICANE-FORCE WINDS EXTEND OUTWARD UP TO 90 MILES"),
            std::string::npos);
  EXPECT_NE(
      text.find("TROPICAL-STORM-FORCE WINDS EXTEND OUTWARD UP TO 260 MILES"),
      std::string::npos);
  EXPECT_NE(text.find("MOVING TOWARD THE NORTH-NORTHEAST NEAR 15 MPH"),
            std::string::npos);
}

TEST(Parser, RoundTripRecoversAllFields) {
  const Advisory original = SampleAdvisory();
  const Advisory parsed =
      ParseAdvisoryResult(RenderAdvisory(original)).ValueOrThrow();
  EXPECT_EQ(parsed.storm_name, original.storm_name);
  EXPECT_EQ(parsed.number, original.number);
  EXPECT_EQ(parsed.time, original.time);
  EXPECT_NEAR(parsed.center.latitude(), original.center.latitude(), 0.051);
  EXPECT_NEAR(parsed.center.longitude(), original.center.longitude(), 0.051);
  EXPECT_DOUBLE_EQ(parsed.max_wind_mph, original.max_wind_mph);
  EXPECT_DOUBLE_EQ(parsed.hurricane_wind_radius_miles,
                   original.hurricane_wind_radius_miles);
  EXPECT_DOUBLE_EQ(parsed.tropical_wind_radius_miles,
                   original.tropical_wind_radius_miles);
  EXPECT_EQ(parsed.motion_direction, original.motion_direction);
  EXPECT_DOUBLE_EQ(parsed.motion_mph, original.motion_mph);
}

TEST(Parser, TropicalStormStage) {
  Advisory ts = SampleAdvisory();
  ts.storm_name = "SANDY";
  ts.max_wind_mph = 60;
  ts.hurricane_wind_radius_miles = 0;
  const Advisory parsed =
      ParseAdvisoryResult(RenderAdvisory(ts)).ValueOrThrow();
  EXPECT_EQ(parsed.storm_name, "SANDY");
  EXPECT_FALSE(parsed.IsHurricane());
  EXPECT_DOUBLE_EQ(parsed.hurricane_wind_radius_miles, 0.0);
  EXPECT_DOUBLE_EQ(parsed.tropical_wind_radius_miles, 260.0);
}

TEST(Parser, ParsesPaperExcerptFragment) {
  // Adapted directly from the paper's Section 4.4 sample text.
  const std::string text =
      "TROPICAL STORM IRENE ADVISORY NUMBER 1\n"
      "1100 AM EDT THU AUG 25 2011\n"
      "...THE CENTER OF HURRICANE IRENE WAS LOCATED NEAR LATITUDE 35.2 "
      "NORTH...LONGITUDE 76.4 WEST. IRENE IS MOVING TOWARD THE "
      "NORTH-NORTHEAST NEAR 15 MPH...HURRICANE-FORCE WINDS EXTEND OUTWARD "
      "UP TO 90 MILES...150 KM...FROM THE CENTER...AND TROPICAL-STORM-FORCE "
      "WINDS EXTEND OUTWARD UP TO 260 MILES...415 KM...";
  const Advisory parsed = ParseAdvisoryResult(text).ValueOrThrow();
  EXPECT_EQ(parsed.storm_name, "IRENE");
  EXPECT_NEAR(parsed.center.latitude(), 35.2, 1e-9);
  EXPECT_NEAR(parsed.center.longitude(), -76.4, 1e-9);
  EXPECT_DOUBLE_EQ(parsed.hurricane_wind_radius_miles, 90);
  EXPECT_DOUBLE_EQ(parsed.tropical_wind_radius_miles, 260);
  EXPECT_DOUBLE_EQ(parsed.motion_mph, 15);
}

TEST(Parser, SouthernAndEasternHemispheres) {
  const std::string text =
      "HURRICANE TEST ADVISORY NUMBER 2\n"
      "...LOCATED NEAR LATITUDE 12.5 SOUTH...LONGITUDE 130.8 EAST...\n"
      "TROPICAL-STORM-FORCE WINDS EXTEND OUTWARD UP TO 100 MILES...\n";
  const Advisory parsed = ParseAdvisoryResult(text).ValueOrThrow();
  EXPECT_NEAR(parsed.center.latitude(), -12.5, 1e-9);
  EXPECT_NEAR(parsed.center.longitude(), 130.8, 1e-9);
}

TEST(Parser, MissingFieldsThrow) {
  for (const char* text :
       {"no storm content at all",
        // no longitude, no radii
        "HURRICANE X ADVISORY NUMBER 1 LATITUDE 30.0 NORTH",
        // no tropical radius
        "HURRICANE X ADVISORY NUMBER 1 "
        "LATITUDE 30.0 NORTH LONGITUDE 90.0 WEST"}) {
    const auto result = ParseAdvisoryResult(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.error().kind, util::ParseErrorKind::kMissingField)
        << text;
    EXPECT_THROW((void)ParseAdvisoryResult(text).ValueOrThrow(), ParseError);
  }
}

// ---------- tracks ----------

TEST(Tracks, PaperAdvisoryCounts) {
  // Section 4.4: Katrina 61, Irene 70, Sandy 60 advisories.
  EXPECT_EQ(KatrinaTrack().advisory_count, 61u);
  EXPECT_EQ(IreneTrack().advisory_count, 70u);
  EXPECT_EQ(SandyTrack().advisory_count, 60u);
  EXPECT_EQ(GenerateAdvisories(KatrinaTrack()).size(), 61u);
  EXPECT_EQ(GenerateAdvisories(IreneTrack()).size(), 70u);
  EXPECT_EQ(GenerateAdvisories(SandyTrack()).size(), 60u);
}

TEST(Tracks, WaypointsAscendInTime) {
  for (const StormTrack* track : AllTracks()) {
    for (std::size_t i = 1; i < track->waypoints.size(); ++i) {
      EXPECT_GT(track->waypoints[i].hours_from_start,
                track->waypoints[i - 1].hours_from_start)
          << track->name;
    }
  }
}

TEST(Tracks, InterpolationMatchesWaypoints) {
  const StormTrack& track = IreneTrack();
  for (const TrackPoint& wp : track.waypoints) {
    const TrackPoint p = track.At(wp.hours_from_start);
    EXPECT_NEAR(p.latitude, wp.latitude, 1e-9);
    EXPECT_NEAR(p.longitude, wp.longitude, 1e-9);
    EXPECT_NEAR(p.max_wind_mph, wp.max_wind_mph, 1e-9);
  }
  // Clamping beyond the ends.
  EXPECT_NEAR(track.At(-5).latitude, track.waypoints.front().latitude, 1e-9);
  EXPECT_NEAR(track.At(1e4).latitude, track.waypoints.back().latitude, 1e-9);
}

TEST(Tracks, KatrinaMakesLouisianaLandfall) {
  // Some advisory of Katrina must place the centre within ~80 miles of the
  // mouth of the Mississippi with hurricane-force winds.
  bool found = false;
  for (const Advisory& advisory : GenerateAdvisories(KatrinaTrack())) {
    if (geo::GreatCircleMiles(advisory.center, geo::GeoPoint(29.3, -89.6)) < 80 &&
        advisory.hurricane_wind_radius_miles > 50) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Tracks, SandyHasHugeWindField) {
  double max_tropical = 0;
  for (const Advisory& advisory : GenerateAdvisories(SandyTrack())) {
    max_tropical =
        std::max(max_tropical, advisory.tropical_wind_radius_miles);
  }
  EXPECT_GE(max_tropical, 450.0);  // Sandy's famously enormous wind field
}

TEST(Tracks, GeneratedTextsParseBack) {
  for (const StormTrack* track : AllTracks()) {
    const auto advisories = GenerateAdvisories(*track);
    const auto texts = GenerateAdvisoryTexts(*track);
    ASSERT_EQ(texts.size(), advisories.size());
    for (std::size_t i = 0; i < texts.size(); i += 7) {
      const Advisory parsed = ParseAdvisoryResult(texts[i]).ValueOrThrow();
      EXPECT_EQ(parsed.storm_name, track->name);
      EXPECT_NEAR(parsed.center.latitude(), advisories[i].center.latitude(),
                  0.051);
      EXPECT_NEAR(parsed.tropical_wind_radius_miles,
                  advisories[i].tropical_wind_radius_miles, 0.51);
    }
  }
}

TEST(Tracks, AdvisoryNumbersSequential) {
  const auto advisories = GenerateAdvisories(SandyTrack());
  for (std::size_t i = 0; i < advisories.size(); ++i) {
    EXPECT_EQ(advisories[i].number, static_cast<int>(i) + 1);
  }
}

// ---------- forecast risk ----------

Advisory CenteredAdvisory(double hur_radius, double trop_radius) {
  Advisory advisory;
  advisory.storm_name = "TEST";
  advisory.center = geo::GeoPoint(30.0, -90.0);
  advisory.max_wind_mph = 100;
  advisory.hurricane_wind_radius_miles = hur_radius;
  advisory.tropical_wind_radius_miles = trop_radius;
  return advisory;
}

TEST(ForecastRisk, ZonesByDistance) {
  const Advisory advisory = CenteredAdvisory(50, 200);
  EXPECT_EQ(ZoneAt(advisory, geo::GeoPoint(30.0, -90.0)), WindZone::kHurricane);
  EXPECT_EQ(ZoneAt(advisory, geo::Destination(advisory.center, 0, 100)),
            WindZone::kTropical);
  EXPECT_EQ(ZoneAt(advisory, geo::Destination(advisory.center, 0, 300)),
            WindZone::kNone);
}

TEST(ForecastRisk, PaperRhoValues) {
  const ForecastRiskParams params;  // defaults are the paper's Section 5.3
  EXPECT_DOUBLE_EQ(params.rho_tropical, 50.0);
  EXPECT_DOUBLE_EQ(params.rho_hurricane, 100.0);
  const ForecastRiskField field(CenteredAdvisory(50, 200));
  EXPECT_DOUBLE_EQ(field.RiskAt(geo::GeoPoint(30.0, -90.0)), 100.0);
  EXPECT_DOUBLE_EQ(field.RiskAt(geo::Destination(field.advisory().center, 0, 100)),
                   50.0);
  EXPECT_DOUBLE_EQ(field.RiskAt(geo::Destination(field.advisory().center, 0, 300)),
                   0.0);
}

TEST(ForecastRisk, RejectsInvertedRho) {
  ForecastRiskParams params;
  params.rho_tropical = 100;
  params.rho_hurricane = 50;
  EXPECT_THROW(ForecastRiskField(CenteredAdvisory(50, 200), params),
               InvalidArgument);
}

TEST(ForecastRisk, TropicalOnlyStorm) {
  const ForecastRiskField field(CenteredAdvisory(0, 200));
  EXPECT_DOUBLE_EQ(field.RiskAt(geo::GeoPoint(30.0, -90.0)), 50.0);
}

TEST(StormScope, AccumulatesMaxZone) {
  StormScope scope;
  scope.Add(CenteredAdvisory(50, 200));
  Advisory moved = CenteredAdvisory(50, 200);
  moved.center = geo::GeoPoint(33.0, -90.0);
  scope.Add(moved);
  EXPECT_EQ(scope.advisory_count(), 2u);
  // Point under hurricane winds of the second advisory only.
  EXPECT_EQ(scope.MaxZoneAt(geo::GeoPoint(33.0, -90.0)), WindZone::kHurricane);
  // Point near the first centre.
  EXPECT_EQ(scope.MaxZoneAt(geo::GeoPoint(30.0, -90.0)), WindZone::kHurricane);
  // Far away from both.
  EXPECT_EQ(scope.MaxZoneAt(geo::GeoPoint(45.0, -120.0)), WindZone::kNone);
}

TEST(StormScope, CountsNetworkPops) {
  topology::Network net("n", topology::NetworkKind::kRegional);
  net.AddPop({"In, LA", geo::GeoPoint(30.0, -90.0)});
  net.AddPop({"Edge, LA", geo::GeoPoint(31.5, -90.0)});   // ~104 mi north
  net.AddPop({"Out, WA", geo::GeoPoint(47.6, -122.3)});
  const StormScope scope({CenteredAdvisory(60, 200)});
  EXPECT_EQ(scope.CountPopsInZone(net, WindZone::kHurricane), 1u);
  EXPECT_EQ(scope.CountPopsInZone(net, WindZone::kTropical), 2u);
  EXPECT_NEAR(scope.FractionPopsInZone(net, WindZone::kHurricane), 1.0 / 3.0,
              1e-12);
}

}  // namespace
}  // namespace riskroute::forecast
