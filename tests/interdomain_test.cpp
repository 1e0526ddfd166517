// Tests for the interdomain engine (paper Section 6.2): merged graph
// construction, peering-edge realization at co-located PoPs, and the
// upper/lower-bound ratio computation.
#include <gtest/gtest.h>

#include "core/interdomain.h"
#include "core/risk_graph.h"
#include "core/route_engine.h"
#include "geo/distance.h"
#include "hazard/risk_field.h"
#include "hazard/synthesis.h"
#include "population/assignment.h"
#include "population/census.h"
#include "topology/corpus.h"
#include "util/error.h"

namespace riskroute::core {
namespace {

using topology::Network;
using topology::NetworkKind;
using topology::Pop;

/// Two networks sharing a city (co-located PoPs in Dallas), peered at the
/// AS level, plus a third network with no peering.
struct Fixture {
  topology::Corpus corpus;
  std::unique_ptr<population::CensusModel> census;
  std::unique_ptr<hazard::HistoricalRiskField> field;
  std::vector<population::ImpactModel> impacts;

  Fixture() {
    Network tier1("Backbone", NetworkKind::kTier1);
    tier1.AddPop({"Dallas, TX", geo::GeoPoint(32.78, -96.80)});
    tier1.AddPop({"Denver, CO", geo::GeoPoint(39.74, -104.99)});
    tier1.AddPop({"Atlanta, GA", geo::GeoPoint(33.75, -84.39)});
    tier1.AddLink(0, 1);
    tier1.AddLink(0, 2);
    tier1.AddLink(1, 2);

    Network regional("TexNet", NetworkKind::kRegional);
    regional.AddPop({"Dallas, TX", geo::GeoPoint(32.80, -96.82)});  // ~2 mi
    regional.AddPop({"Houston, TX", geo::GeoPoint(29.76, -95.37)});
    regional.AddLink(0, 1);

    Network isolated("LoneStar", NetworkKind::kRegional);
    isolated.AddPop({"Austin, TX", geo::GeoPoint(30.27, -97.74)});
    isolated.AddPop({"Waco, TX", geo::GeoPoint(31.55, -97.15)});
    isolated.AddLink(0, 1);

    corpus.AddNetwork(std::move(tier1));
    corpus.AddNetwork(std::move(regional));
    corpus.AddNetwork(std::move(isolated));
    corpus.AddPeering(0, 1);  // Backbone <-> TexNet only

    population::CensusOptions census_options;
    census_options.block_count = 20000;
    census = std::make_unique<population::CensusModel>(
        population::CensusModel::Synthesize(census_options));

    util::Rng rng(4);
    std::vector<hazard::Catalog> catalogs;
    catalogs.emplace_back(
        hazard::HazardType::kFemaStorm,
        hazard::SampleMixture({{geo::GeoPoint(35.0, -97.0), 1.0, 150.0}}, 500,
                              rng));
    field = std::make_unique<hazard::HistoricalRiskField>(
        catalogs, std::vector<double>{60.0});

    for (std::size_t n = 0; n < corpus.network_count(); ++n) {
      impacts.push_back(
          population::ImpactModel::Build(corpus.network(n), *census));
    }
  }
};

TEST(RiskGraphFromNetwork, PrecomputedRiskOverloadMatchesFieldOverload) {
  Fixture f;
  const topology::Network& net = f.corpus.network(0);
  const RiskGraph from_field =
      RiskGraph::FromNetwork(net, f.impacts[0], *f.field);
  const RiskGraph from_span = RiskGraph::FromNetwork(
      net, f.impacts[0], f.field->PopRisks(net));
  ASSERT_EQ(from_span.node_count(), from_field.node_count());
  for (std::size_t i = 0; i < from_field.node_count(); ++i) {
    EXPECT_EQ(from_span.node(i).name, from_field.node(i).name);
    EXPECT_EQ(from_span.node(i).historical_risk,
              from_field.node(i).historical_risk);
    EXPECT_EQ(from_span.node(i).impact_fraction,
              from_field.node(i).impact_fraction);
  }
  ASSERT_EQ(from_span.directed_edge_count(), from_field.directed_edge_count());
  for (std::size_t v = 0; v < from_field.node_count(); ++v) {
    const auto& a = from_span.OutEdges(v);
    const auto& b = from_field.OutEdges(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].to, b[k].to);
      EXPECT_EQ(a[k].miles, b[k].miles);
    }
  }
  const std::vector<double> wrong_size(net.pop_count() + 1, 0.0);
  EXPECT_THROW(
      (void)RiskGraph::FromNetwork(net, f.impacts[0], wrong_size),
      InvalidArgument);
}

TEST(MergedGraph, NodeCountAndOriginMapping) {
  Fixture f;
  const MergedGraph merged = BuildMergedGraph(f.corpus, f.impacts, *f.field);
  EXPECT_EQ(merged.graph.node_count(), 7u);  // 3 + 2 + 2
  ASSERT_EQ(merged.origin.size(), 7u);
  for (std::size_t n = 0; n < f.corpus.network_count(); ++n) {
    for (std::size_t p = 0; p < f.corpus.network(n).pop_count(); ++p) {
      const std::size_t id = merged.GlobalId(n, p);
      EXPECT_EQ(merged.origin[id].network, n);
      EXPECT_EQ(merged.origin[id].pop, p);
    }
  }
}

TEST(MergedGraph, PeeringEdgesOnlyBetweenColocatedPeers) {
  Fixture f;
  const MergedGraph merged = BuildMergedGraph(f.corpus, f.impacts, *f.field);
  // Exactly one realized peering: Dallas(Backbone) <-> Dallas(TexNet).
  ASSERT_EQ(merged.peering_edges.size(), 1u);
  const auto [ga, gb] = merged.peering_edges.front();
  EXPECT_EQ(merged.origin[ga].network, 0u);
  EXPECT_EQ(merged.origin[gb].network, 1u);
  EXPECT_EQ(merged.origin[ga].pop, 0u);
  EXPECT_EQ(merged.origin[gb].pop, 0u);
  // LoneStar has no peering, so its nodes connect only internally.
  const std::size_t austin = merged.GlobalId(2, 0);
  EXPECT_EQ(merged.graph.OutEdges(austin).size(), 1u);
}

TEST(MergedGraph, ColocationRadiusRespected) {
  Fixture f;
  MergeOptions options;
  options.colocation_radius_miles = 0.5;  // tighter than the ~2 mi offset
  const MergedGraph merged =
      BuildMergedGraph(f.corpus, f.impacts, *f.field, options);
  EXPECT_TRUE(merged.peering_edges.empty());
}

TEST(MergedGraph, CrossNetworkRoutingWorksThroughPeering) {
  Fixture f;
  const MergedGraph merged = BuildMergedGraph(f.corpus, f.impacts, *f.field);
  // Houston (TexNet) can reach Denver (Backbone) via the Dallas peering.
  const std::size_t houston = merged.GlobalId(1, 1);
  const std::size_t denver = merged.GlobalId(0, 1);
  const core::RouteEngine engine(merged.graph, core::RiskParams{0, 0});
  const auto path = engine.FindPath(houston, denver, 0.0);
  ASSERT_TRUE(path.has_value());
  EXPECT_GE(path->size(), 4u);  // Houston -> Dallas_T -> Dallas_B -> Denver
}

TEST(MergedGraph, IsolatedNetworkUnreachable) {
  Fixture f;
  const MergedGraph merged = BuildMergedGraph(f.corpus, f.impacts, *f.field);
  const std::size_t houston = merged.GlobalId(1, 1);
  const std::size_t austin = merged.GlobalId(2, 0);
  const core::RouteEngine engine(merged.graph, core::RiskParams{0, 0});
  EXPECT_FALSE(engine.FindPath(houston, austin, 0.0).has_value());
}

TEST(MergedGraph, Validation) {
  Fixture f;
  std::vector<population::ImpactModel> wrong;
  EXPECT_THROW((void)BuildMergedGraph(f.corpus, wrong, *f.field),
               InvalidArgument);
  const MergedGraph merged = BuildMergedGraph(f.corpus, f.impacts, *f.field);
  EXPECT_THROW((void)merged.GlobalId(9, 0), InvalidArgument);
  EXPECT_THROW((void)merged.GlobalId(0, 9), InvalidArgument);
}

TEST(Interdomain, RegionalTargetsCoverAllRegionalPops) {
  Fixture f;
  const MergedGraph merged = BuildMergedGraph(f.corpus, f.impacts, *f.field);
  const auto targets = RegionalTargets(merged, f.corpus);
  EXPECT_EQ(targets.size(), 4u);  // TexNet 2 + LoneStar 2
}

TEST(Interdomain, RatiosComputeForPeeredRegional) {
  Fixture f;
  const MergedGraph merged = BuildMergedGraph(f.corpus, f.impacts, *f.field);
  const RatioReport report = InterdomainRatios(
      RouteEngine(merged.graph, RiskParams{1e5, 1e3}), merged, f.corpus, 1);
  // TexNet PoPs can reach each other (LoneStar unreachable): 2 pairs.
  EXPECT_EQ(report.pair_count, 2u);
  EXPECT_GE(report.risk_reduction_ratio, 0.0);
}

TEST(Interdomain, LowerBoundNeverWorseThanUpperBound) {
  Fixture f;
  const MergedGraph merged = BuildMergedGraph(f.corpus, f.impacts, *f.field);
  const RouteEngine engine(merged.graph, RiskParams{1e6, 1e3});
  const std::size_t houston = merged.GlobalId(1, 1);
  const std::size_t denver = merged.GlobalId(0, 1);
  const auto lower = engine.FindPath(houston, denver,  // full control
                                     engine.Alpha(houston, denver));
  const auto upper = engine.FindPath(houston, denver, 0.0);  // geo shortest
  ASSERT_TRUE(lower && upper);
  EXPECT_LE(engine.PathBitRiskMiles(*lower),
            engine.PathBitRiskMiles(*upper) + 1e-9);
}

TEST(Interdomain, IndexValidation) {
  Fixture f;
  const MergedGraph merged = BuildMergedGraph(f.corpus, f.impacts, *f.field);
  EXPECT_THROW((void)InterdomainRatios(RouteEngine(merged.graph, RiskParams{}),
                                       merged, f.corpus, 99),
               InvalidArgument);
}

}  // namespace
}  // namespace riskroute::core
