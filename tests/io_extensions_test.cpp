// Tests for the I/O and selection extensions: GraphML import (Topology
// Zoo format), catalog CSV round-trips, downtime weighting, risk-aware
// BGP selection, and the CLI argument parser.
#include <gtest/gtest.h>

#include "bgp/risk_selection.h"
#include "hazard/catalog_io.h"
#include "population/census_io.h"
#include "hazard/duration.h"
#include "hazard/synthesis.h"
#include "topology/graphml.h"
#include "tools/args.h"
#include "util/error.h"

namespace riskroute {
namespace {

// ---------- GraphML ----------

constexpr const char* kZooSample = R"(<?xml version="1.0" encoding="utf-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <!-- Topology-Zoo-style sample -->
  <key attr.name="Latitude" attr.type="double" for="node" id="d29" />
  <key attr.name="Longitude" attr.type="double" for="node" id="d32" />
  <key attr.name="label" attr.type="string" for="node" id="d33" />
  <key attr.name="LinkLabel" attr.type="string" for="edge" id="e1" />
  <graph edgedefault="undirected">
    <node id="0">
      <data key="d33">Houston &amp; Co</data>
      <data key="d29">29.76</data>
      <data key="d32">-95.37</data>
    </node>
    <node id="1">
      <data key="d33">Atlanta</data>
      <data key="d29">33.75</data>
      <data key="d32">-84.39</data>
    </node>
    <node id="2">
      <data key="d33">Washington</data>
      <data key="d29">38.91</data>
      <data key="d32">-77.04</data>
    </node>
    <node id="3">
      <data key="d33">Hyper Node (no coords)</data>
    </node>
    <edge source="0" target="1">
      <data key="e1">OC-192</data>
    </edge>
    <edge source="1" target="2" />
    <edge source="2" target="3" />
    <edge source="0" target="0" />
  </graph>
</graphml>
)";

TEST(Graphml, ParsesTopologyZooSample) {
  topology::GraphmlOptions options;
  options.network_name = "Sample";
  options.kind = topology::NetworkKind::kTier1;
  const topology::Network net = topology::ParseGraphml(kZooSample, options);
  EXPECT_EQ(net.name(), "Sample");
  EXPECT_EQ(net.kind(), topology::NetworkKind::kTier1);
  // Hyper node dropped; 3 placed nodes survive.
  ASSERT_EQ(net.pop_count(), 3u);
  EXPECT_EQ(net.pop(0).name, "Houston & Co");  // entity unescaped
  EXPECT_NEAR(net.pop(0).location.latitude(), 29.76, 1e-9);
  EXPECT_NEAR(net.pop(0).location.longitude(), -95.37, 1e-9);
  // Edge to the dropped node and the self-loop are skipped.
  EXPECT_EQ(net.link_count(), 2u);
  EXPECT_TRUE(net.HasLink(0, 1));
  EXPECT_TRUE(net.HasLink(1, 2));
}

TEST(Graphml, CustomAttributeNames) {
  const std::string text = R"(<graphml>
    <key attr.name="lat" for="node" id="a"/>
    <key attr.name="lon" for="node" id="b"/>
    <graph>
      <node id="n0"><data key="a">40.0</data><data key="b">-100.0</data></node>
      <node id="n1"><data key="a">41.0</data><data key="b">-101.0</data></node>
      <edge source="n0" target="n1"/>
    </graph>
  </graphml>)";
  topology::GraphmlOptions options;
  options.latitude_attr = "lat";
  options.longitude_attr = "lon";
  const topology::Network net = topology::ParseGraphml(text, options);
  EXPECT_EQ(net.pop_count(), 2u);
  EXPECT_EQ(net.link_count(), 1u);
  // No label key: GraphML node ids become names.
  EXPECT_EQ(net.pop(0).name, "n0");
}

TEST(Graphml, Validation) {
  EXPECT_THROW((void)topology::ParseGraphml("<graphml></graphml>"),
               ParseError);
  EXPECT_THROW((void)topology::ParseGraphml(
                   "<graphml><key attr.name=\"Latitude\" for=\"node\" "
                   "id=\"a\"/><key attr.name=\"Longitude\" for=\"node\" "
                   "id=\"b\"/><graph><node/></graph></graphml>"),
               ParseError);  // node without id
  // Malformed attribute.
  EXPECT_THROW((void)topology::ParseGraphml("<graphml><key attr.name=>"),
               ParseError);
}

TEST(Graphml, RoundTripThroughRrtFormat) {
  // GraphML in, internal network out — must survive the library's own
  // serialization path too.
  const topology::Network net = topology::ParseGraphml(kZooSample);
  EXPECT_TRUE(net.IsConnected());
  EXPECT_GT(net.FootprintMiles(), 500.0);
}

// ---------- catalog CSV ----------

TEST(CatalogIo, RoundTrip) {
  std::vector<hazard::Catalog> original;
  util::Rng rng(5);
  original.push_back(hazard::Catalog(
      hazard::HazardType::kFemaHurricane,
      hazard::SampleMixture({{geo::GeoPoint(29.9, -90.1), 1.0, 80.0}}, 50,
                            rng)));
  original.push_back(hazard::Catalog(
      hazard::HazardType::kNoaaWind,
      hazard::SampleMixture({{geo::GeoPoint(40.0, -90.0), 1.0, 50.0}}, 30,
                            rng)));
  const std::string csv = hazard::CatalogsToCsv(original);
  const auto parsed = hazard::CatalogsFromCsv(csv);
  ASSERT_EQ(parsed.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(parsed[c].type(), original[c].type());
    ASSERT_EQ(parsed[c].size(), original[c].size());
    for (std::size_t e = 0; e < parsed[c].size(); ++e) {
      EXPECT_NEAR(parsed[c].events()[e].location.latitude(),
                  original[c].events()[e].location.latitude(), 1e-5);
      EXPECT_EQ(parsed[c].events()[e].year, original[c].events()[e].year);
      EXPECT_EQ(parsed[c].events()[e].month, original[c].events()[e].month);
    }
  }
}

TEST(CatalogIo, RejectsMalformedInput) {
  EXPECT_THROW((void)hazard::CatalogsFromCsv(""), ParseError);
  EXPECT_THROW((void)hazard::CatalogsFromCsv("wrong,header\n"), ParseError);
  const std::string good_header = "type,latitude,longitude,year,month\n";
  EXPECT_THROW((void)hazard::CatalogsFromCsv(good_header +
                                             "FEMA Meteor,30,-90,2000,5\n"),
               ParseError);
  EXPECT_THROW((void)hazard::CatalogsFromCsv(good_header +
                                             "FEMA Storm,30,-90,2000,13\n"),
               ParseError);
  EXPECT_THROW((void)hazard::CatalogsFromCsv(good_header +
                                             "FEMA Storm,999,-90,2000,5\n"),
               ParseError);
}

TEST(CensusIo, RoundTrip) {
  population::CensusOptions options;
  options.block_count = 500;
  const population::CensusModel original =
      population::CensusModel::Synthesize(options);
  const population::CensusModel parsed =
      population::CensusFromCsv(population::CensusToCsv(original));
  ASSERT_EQ(parsed.block_count(), original.block_count());
  EXPECT_NEAR(parsed.total_population(), original.total_population(), 1.0);
  EXPECT_EQ(parsed.blocks()[7].state, original.blocks()[7].state);
  EXPECT_NEAR(parsed.blocks()[7].centroid.latitude(),
              original.blocks()[7].centroid.latitude(), 1e-5);
}

TEST(CensusIo, RejectsMalformedInput) {
  EXPECT_THROW((void)population::CensusFromCsv(""), ParseError);
  const std::string header = "latitude,longitude,population,state\n";
  EXPECT_THROW((void)population::CensusFromCsv(header), ParseError);
  EXPECT_THROW(
      (void)population::CensusFromCsv(header + "30,-90,-5,LA\n"),
      ParseError);
  EXPECT_THROW(
      (void)population::CensusFromCsv(header + "999,-90,10,LA\n"),
      ParseError);
}

// ---------- downtime weighting ----------

TEST(Duration, HurricanesDominateWind) {
  EXPECT_GT(hazard::ExpectedOutageHours(hazard::HazardType::kFemaHurricane),
            10 * hazard::ExpectedOutageHours(hazard::HazardType::kNoaaWind));
}

TEST(Duration, WeightsMeanOne) {
  const auto catalogs = hazard::SynthesizeAllCatalogs(11);
  hazard::HistoricalRiskField field(catalogs, hazard::PaperBandwidths());
  const auto weights = hazard::DowntimeWeights(field);
  ASSERT_EQ(weights.size(), field.model_count());
  double sum = 0.0;
  for (const double w : weights) sum += w;
  EXPECT_NEAR(sum / weights.size(), 1.0, 1e-12);
}

TEST(Duration, WeightingShiftsRiskTowardHurricaneCountry) {
  const auto catalogs = hazard::SynthesizeAllCatalogs(11);
  hazard::HistoricalRiskField plain(catalogs, hazard::PaperBandwidths());
  hazard::HistoricalRiskField weighted(catalogs, hazard::PaperBandwidths());
  hazard::ApplyDowntimeWeighting(weighted);
  const geo::GeoPoint gulf(29.95, -90.07);     // hurricane country
  const geo::GeoPoint plains(41.0, -96.5);     // wind/storm country
  const double gulf_gain = weighted.RiskAt(gulf) / plain.RiskAt(gulf);
  const double plains_gain = weighted.RiskAt(plains) / plain.RiskAt(plains);
  EXPECT_GT(gulf_gain, plains_gain);
}

// ---------- risk-aware BGP selection ----------

TEST(RiskSelection, RouteRiskSumsTraversedAses) {
  const std::vector<double> risk = {0.5, 0.1, 0.9, 0.2};
  bgp::Route route;
  route.as_path = {0, 2, 3};
  EXPECT_DOUBLE_EQ(bgp::RouteRisk(route, risk), 0.9 + 0.2);
  route.as_path = {1, 0};
  EXPECT_DOUBLE_EQ(bgp::RouteRisk(route, risk), 0.5);
  route.as_path = {0, 9};
  EXPECT_THROW((void)bgp::RouteRisk(route, risk), InvalidArgument);
}

TEST(RiskSelection, PolicyClassStillDominates) {
  std::vector<bgp::Route> alternates = {
      {{0, 1, 9}, bgp::NeighborRole::kProvider},  // safe but provider
      {{0, 2, 9}, bgp::NeighborRole::kCustomer},  // risky but customer
  };
  const std::vector<double> risk = {0.0, 0.0, 10.0, 0, 0, 0, 0, 0, 0, 0.0};
  bgp::RankAlternatesByRisk(alternates, risk);
  EXPECT_EQ(alternates.front().learned_from, bgp::NeighborRole::kCustomer);
}

TEST(RiskSelection, WithinClassLowerRiskWins) {
  std::vector<bgp::Route> alternates = {
      {{0, 2, 9}, bgp::NeighborRole::kPeer},  // risk 10
      {{0, 1, 9}, bgp::NeighborRole::kPeer},  // risk 0
  };
  std::vector<double> risk(10, 0.0);
  risk[2] = 10.0;
  bgp::RankAlternatesByRisk(alternates, risk);
  EXPECT_EQ(alternates.front().next_hop(), 1u);
}

// ---------- CLI args ----------

TEST(Args, ParsesOptionsAndPositionals) {
  // A declared value flag consumes the next token; a declared boolean
  // never does.
  const char* argv[] = {"prog", "route",   "extra", "--network",
                        "Level3", "--geojson", "--lambda-h", "1e5"};
  cli::FlagRegistry flags;
  flags.Value("network").Value("lambda-h").Bool("geojson");
  const auto parsed =
      cli::Args::Parse(8, const_cast<char**>(argv), 2, flags);
  ASSERT_TRUE(parsed.ok()) << parsed.error().Render();
  const cli::Args& args = parsed.value();
  EXPECT_EQ(args.GetOr("network", "x"), "Level3");
  EXPECT_TRUE(args.Has("geojson"));
  EXPECT_DOUBLE_EQ(args.GetDouble("lambda-h", 0), 1e5);
  EXPECT_DOUBLE_EQ(args.GetDouble("missing", 7.0), 7.0);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "extra");
}

TEST(Args, NumericValidation) {
  const char* argv[] = {"prog", "cmd", "--trials", "abc"};
  cli::FlagRegistry flags;
  flags.Value("trials");
  const auto parsed =
      cli::Args::Parse(4, const_cast<char**>(argv), 2, flags);
  ASSERT_TRUE(parsed.ok()) << parsed.error().Render();
  EXPECT_THROW((void)parsed.value().GetSize("trials", 1), InvalidArgument);
  EXPECT_THROW((void)parsed.value().GetDouble("trials", 1.0), InvalidArgument);
}

}  // namespace
}  // namespace riskroute
