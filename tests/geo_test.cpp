// Unit tests for the geo module: coordinates, great-circle math, bounding
// boxes and the CONUS polygon.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "geo/bounding_box.h"
#include "geo/conus.h"
#include "geo/distance.h"
#include "geo/geo_point.h"
#include "util/error.h"
#include "util/rng.h"

namespace riskroute::geo {
namespace {

TEST(GeoPoint, ValidatesRange) {
  EXPECT_NO_THROW(GeoPoint(0, 0));
  EXPECT_NO_THROW(GeoPoint(90, 180));
  EXPECT_NO_THROW(GeoPoint(-90, -180));
  EXPECT_THROW(GeoPoint(90.1, 0), InvalidArgument);
  EXPECT_THROW(GeoPoint(0, -180.1), InvalidArgument);
  EXPECT_THROW(GeoPoint(std::nan(""), 0), InvalidArgument);
}

TEST(GeoPoint, ToStringUsesHemisphereSuffixes) {
  EXPECT_EQ(GeoPoint(35.2, -76.4).ToString(), "35.2000N 76.4000W");
  EXPECT_EQ(GeoPoint(-12.5, 130.8).ToString(), "12.5000S 130.8000E");
}

TEST(Distance, KnownCityPairs) {
  // Reference distances (statute miles, great-circle).
  const GeoPoint nyc(40.71, -74.01);
  const GeoPoint la(34.05, -118.24);
  const GeoPoint chicago(41.88, -87.63);
  EXPECT_NEAR(GreatCircleMiles(nyc, la), 2445, 25);
  EXPECT_NEAR(GreatCircleMiles(nyc, chicago), 712, 15);
}

TEST(Distance, ZeroAndSymmetry) {
  const GeoPoint a(32.3, -90.2), b(47.6, -122.3);
  EXPECT_DOUBLE_EQ(GreatCircleMiles(a, a), 0.0);
  EXPECT_DOUBLE_EQ(GreatCircleMiles(a, b), GreatCircleMiles(b, a));
}

TEST(Distance, ApproxCloseToHaversineAtConusScale) {
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const GeoPoint a(rng.Uniform(25, 49), rng.Uniform(-124, -67));
    const GeoPoint b(a.latitude() + rng.Uniform(-3, 3),
                     a.longitude() + rng.Uniform(-3, 3));
    const double exact = GreatCircleMiles(a, b);
    const double approx = ApproxMiles(a, b);
    EXPECT_NEAR(approx, exact, std::max(0.5, exact * 0.01));
  }
}

TEST(Distance, TriangleInequality) {
  util::Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const GeoPoint a(rng.Uniform(25, 49), rng.Uniform(-124, -67));
    const GeoPoint b(rng.Uniform(25, 49), rng.Uniform(-124, -67));
    const GeoPoint c(rng.Uniform(25, 49), rng.Uniform(-124, -67));
    EXPECT_LE(GreatCircleMiles(a, c),
              GreatCircleMiles(a, b) + GreatCircleMiles(b, c) + 1e-6);
  }
}

TEST(Distance, BearingCardinalDirections) {
  const GeoPoint origin(40.0, -100.0);
  EXPECT_NEAR(InitialBearingDeg(origin, GeoPoint(45.0, -100.0)), 0.0, 0.5);
  EXPECT_NEAR(InitialBearingDeg(origin, GeoPoint(35.0, -100.0)), 180.0, 0.5);
  EXPECT_NEAR(InitialBearingDeg(origin, GeoPoint(40.0, -95.0)), 90.0, 2.5);
  EXPECT_NEAR(InitialBearingDeg(origin, GeoPoint(40.0, -105.0)), 270.0, 2.5);
}

TEST(Distance, DestinationInvertsDistanceAndBearing) {
  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const GeoPoint origin(rng.Uniform(25, 49), rng.Uniform(-124, -67));
    const double bearing = rng.Uniform(0, 360);
    const double miles = rng.Uniform(1, 1500);
    const GeoPoint dest = Destination(origin, bearing, miles);
    EXPECT_NEAR(GreatCircleMiles(origin, dest), miles, miles * 1e-6 + 1e-6);
    EXPECT_NEAR(InitialBearingDeg(origin, dest), bearing, 0.01);
  }
}

TEST(Distance, InterpolateEndpointsAndMidpoint) {
  const GeoPoint a(30.0, -90.0), b(40.0, -75.0);
  EXPECT_EQ(Interpolate(a, b, 0.0), a);
  EXPECT_EQ(Interpolate(a, b, 1.0), b);
  const GeoPoint mid = Interpolate(a, b, 0.5);
  EXPECT_NEAR(GreatCircleMiles(a, mid), GreatCircleMiles(mid, b), 0.5);
}

TEST(BoundingBox, ValidatesOrder) {
  EXPECT_NO_THROW(BoundingBox(24, -125, 49, -66));
  EXPECT_THROW(BoundingBox(49, -125, 24, -66), InvalidArgument);
  EXPECT_THROW(BoundingBox(24, -66, 49, -125), InvalidArgument);
}

TEST(BoundingBox, ContainsAndPadding) {
  const BoundingBox box(30, -100, 40, -90);
  EXPECT_TRUE(box.Contains(GeoPoint(35, -95)));
  EXPECT_TRUE(box.Contains(GeoPoint(30, -100)));  // boundary inclusive
  EXPECT_FALSE(box.Contains(GeoPoint(29.9, -95)));
  EXPECT_TRUE(box.Padded(0.5).Contains(GeoPoint(29.9, -95)));
}

TEST(BoundingBox, AroundPoints) {
  const std::vector<GeoPoint> points = {{30, -95}, {35, -100}, {32, -90}};
  const BoundingBox box = BoundingBox::Around(points);
  EXPECT_DOUBLE_EQ(box.min_lat(), 30);
  EXPECT_DOUBLE_EQ(box.max_lat(), 35);
  EXPECT_DOUBLE_EQ(box.min_lon(), -100);
  EXPECT_DOUBLE_EQ(box.max_lon(), -90);
  for (const auto& p : points) EXPECT_TRUE(box.Contains(p));
}

TEST(BoundingBox, AroundEmptyThrows) {
  const std::vector<GeoPoint> none;
  EXPECT_THROW((void)BoundingBox::Around(none), InvalidArgument);
}

TEST(BoundingBox, ExpandedToInclude) {
  const BoundingBox box(30, -100, 40, -90);
  const BoundingBox bigger = box.ExpandedToInclude(GeoPoint(45, -80));
  EXPECT_TRUE(bigger.Contains(GeoPoint(45, -80)));
  EXPECT_TRUE(bigger.Contains(GeoPoint(30, -100)));
}

struct ConusCase {
  const char* name;
  double lat, lon;
  bool inside;
};

// Without a printer gtest lists the parameter as raw bytes, starting with
// the address of `name`, which moves with address-space randomisation and
// would make the discovered ctest names differ from one build to the next.
void PrintTo(const ConusCase& c, std::ostream* os) {
  *os << (c.inside ? "inside" : "outside");
}

class ConusParamTest : public ::testing::TestWithParam<ConusCase> {};

TEST_P(ConusParamTest, ClassifiesKnownLocations) {
  const ConusCase& c = GetParam();
  EXPECT_EQ(InConus(GeoPoint(c.lat, c.lon)), c.inside) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    KnownLocations, ConusParamTest,
    ::testing::Values(
        ConusCase{"Kansas", 38.5, -98.0, true},
        ConusCase{"New Orleans", 29.95, -90.07, true},
        ConusCase{"Miami", 25.76, -80.19, true},
        ConusCase{"Seattle", 47.61, -122.33, true},
        ConusCase{"Key West", 24.56, -81.78, true},
        ConusCase{"Houston", 29.76, -95.37, true},
        ConusCase{"Maine inland", 45.2, -69.3, true},
        ConusCase{"Gulf of Mexico", 27.0, -90.0, false},
        ConusCase{"Atlantic off NC", 34.0, -73.0, false},
        ConusCase{"Pacific off CA", 35.0, -125.5, false},
        ConusCase{"Canada (Winnipeg)", 49.9, -97.1, false},
        ConusCase{"Mexico (Monterrey)", 25.7, -100.3, false},
        ConusCase{"Lake Superior", 47.7, -88.0, false}),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(Conus, PolygonIsClosedAndLarge) {
  const auto polygon = ConusPolygon();
  ASSERT_GE(polygon.size(), 30u);
  EXPECT_EQ(polygon.front(), polygon.back());
}

}  // namespace
}  // namespace riskroute::geo
