// Tests for the provisioning analyses (paper Section 6.3): candidate-link
// enumeration with the >50% bit-mile filter, greedy augmentation (Eq 4),
// and peering recommendations.
#include <gtest/gtest.h>

#include "core/interdomain.h"
#include "geo/distance.h"
#include "hazard/risk_field.h"
#include "hazard/synthesis.h"
#include "population/assignment.h"
#include "population/census.h"
#include "provision/augmentation.h"
#include "provision/candidate_links.h"
#include "provision/peering.h"
#include "util/error.h"

namespace riskroute::provision {
namespace {

using core::RiskGraph;
using core::RiskNode;
using core::RiskParams;

/// A 5-node "C"-shaped chain: closing the ends is a huge mile saver.
///
///   0 -- 1 -- 2 -- 3 -- 4       with 0 and 4 geographically close.
RiskGraph ChainGraph() {
  RiskGraph graph;
  graph.AddNode(RiskNode{"W0", geo::GeoPoint(32.0, -98.0), 0.2, 0.0, 0.0});
  graph.AddNode(RiskNode{"N1", geo::GeoPoint(39.0, -97.0), 0.2, 0.05, 0.0});
  graph.AddNode(RiskNode{"N2", geo::GeoPoint(40.0, -94.5), 0.2, 0.08, 0.0});
  graph.AddNode(RiskNode{"N3", geo::GeoPoint(39.0, -92.0), 0.2, 0.05, 0.0});
  graph.AddNode(RiskNode{"E4", geo::GeoPoint(32.0, -91.0), 0.2, 0.0, 0.0});
  for (std::size_t i = 0; i + 1 < 5; ++i) graph.AddEdgeByDistance(i, i + 1);
  return graph;
}

TEST(CandidateLinks, FindsTheObviousClosure) {
  const RiskGraph graph = ChainGraph();
  const core::RouteEngine engine(graph, RiskParams{});
  const auto candidates = EnumerateCandidateLinks(engine);
  // 0 <-> 4 must qualify: the direct line is far below half the chain.
  bool found = false;
  for (const CandidateLink& c : candidates) {
    EXPECT_FALSE(graph.HasEdge(c.a, c.b));
    EXPECT_LT(c.direct_miles, 0.5 * c.current_path_miles);
    if (c.a == 0 && c.b == 4) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CandidateLinks, AdjacentPairsNeverCandidates) {
  const RiskGraph graph = ChainGraph();
  const core::RouteEngine engine(graph, RiskParams{});
  for (const CandidateLink& c : EnumerateCandidateLinks(engine)) {
    EXPECT_FALSE(graph.HasEdge(c.a, c.b));
    EXPECT_LT(c.a, c.b);
  }
}

TEST(CandidateLinks, ThresholdIsRespected) {
  const RiskGraph graph = ChainGraph();
  const core::RouteEngine engine(graph, RiskParams{});
  CandidateOptions strict;
  strict.min_mile_reduction = 0.95;  // near-impossible saving
  EXPECT_TRUE(EnumerateCandidateLinks(engine, strict).empty());
  CandidateOptions loose;
  loose.min_mile_reduction = 0.05;
  EXPECT_GE(EnumerateCandidateLinks(engine, loose).size(),
            EnumerateCandidateLinks(engine).size());
}

TEST(CandidateLinks, MaxCandidatesKeepsBiggestSavers) {
  const RiskGraph graph = ChainGraph();
  const core::RouteEngine engine(graph, RiskParams{});
  CandidateOptions options;
  options.min_mile_reduction = 0.05;
  const auto all = EnumerateCandidateLinks(engine, options);
  ASSERT_GE(all.size(), 2u);
  options.max_candidates = 1;
  const auto capped = EnumerateCandidateLinks(engine, options);
  ASSERT_EQ(capped.size(), 1u);
  double best_saving = 0.0;
  for (const CandidateLink& c : all) {
    best_saving =
        std::max(best_saving, c.current_path_miles - c.direct_miles);
  }
  EXPECT_NEAR(capped[0].current_path_miles - capped[0].direct_miles,
              best_saving, 1e-9);
}

TEST(Augmentation, SingleLinkReducesObjective) {
  const RiskGraph graph = ChainGraph();
  AugmentationOptions options;
  options.links_to_add = 1;
  const AugmentationResult result =
      GreedyAugment(core::RouteEngine(graph, RiskParams{1e4, 0}), options);
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_LT(result.steps[0].bit_risk_miles, result.original_bit_risk_miles);
  EXPECT_LT(result.steps[0].fraction_of_original, 1.0);
  EXPECT_GT(result.steps[0].fraction_of_original, 0.0);
}

TEST(Augmentation, GreedyStepsMonotoneDecreasing) {
  const RiskGraph graph = ChainGraph();
  AugmentationOptions options;
  options.links_to_add = 3;
  options.candidates.min_mile_reduction = 0.2;
  const AugmentationResult result =
      GreedyAugment(core::RouteEngine(graph, RiskParams{1e4, 0}), options);
  double previous = result.original_bit_risk_miles;
  for (const AugmentationStep& step : result.steps) {
    EXPECT_LT(step.bit_risk_miles, previous + 1e-9);
    previous = step.bit_risk_miles;
  }
}

TEST(Augmentation, FirstLinkIsTheBestSingleAddition) {
  const RiskGraph graph = ChainGraph();
  const RiskParams params{1e4, 0};
  AugmentationOptions options;
  options.links_to_add = 1;
  options.candidates.min_mile_reduction = 0.2;
  const core::RouteEngine engine(graph, params);
  const AugmentationResult result = GreedyAugment(engine, options);
  ASSERT_EQ(result.steps.size(), 1u);
  // Exhaustively verify optimality over the candidate set (Eq 4).
  for (const CandidateLink& c :
       EnumerateCandidateLinks(engine, options.candidates)) {
    RiskGraph probe = graph;
    probe.AddEdge(c.a, c.b, c.direct_miles);
    EXPECT_GE(core::RouteEngine(probe, params).AggregateMinBitRisk(),
              result.steps[0].bit_risk_miles - 1e-9);
  }
}

TEST(Augmentation, CallerGraphUnchanged) {
  const RiskGraph graph = ChainGraph();
  const std::size_t edges_before = graph.directed_edge_count();
  AugmentationOptions options;
  options.links_to_add = 2;
  (void)GreedyAugment(core::RouteEngine(graph, RiskParams{1e4, 0}), options);
  EXPECT_EQ(graph.directed_edge_count(), edges_before);
}

TEST(Augmentation, StopsWhenNoCandidateHelps) {
  // Fully meshed triangle: no candidate links exist at all.
  RiskGraph graph;
  graph.AddNode(RiskNode{"A", geo::GeoPoint(30, -95), 0.3, 0, 0});
  graph.AddNode(RiskNode{"B", geo::GeoPoint(31, -94), 0.3, 0, 0});
  graph.AddNode(RiskNode{"C", geo::GeoPoint(32, -95), 0.4, 0, 0});
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) graph.AddEdgeByDistance(i, j);
  }
  AugmentationOptions options;
  options.links_to_add = 5;
  const AugmentationResult result =
      GreedyAugment(core::RouteEngine(graph, RiskParams{1e4, 0}), options);
  EXPECT_TRUE(result.steps.empty());
}

TEST(Augmentation, Validation) {
  const RiskGraph graph = ChainGraph();
  AugmentationOptions options;
  options.links_to_add = 0;
  EXPECT_THROW(
      (void)GreedyAugment(core::RouteEngine(graph, RiskParams{}), options),
      InvalidArgument);
}

// ---------- peering ----------

struct PeeringFixture {
  topology::Corpus corpus;
  std::unique_ptr<population::CensusModel> census;
  std::unique_ptr<hazard::HistoricalRiskField> field;
  std::vector<population::ImpactModel> impacts;

  PeeringFixture() {
    using topology::Network;
    using topology::NetworkKind;
    // Two tier-1s and one regional. The regional peers with SlowNet only;
    // FastNet is co-located and is the obvious recommendation.
    Network fast("FastNet", NetworkKind::kTier1);
    fast.AddPop({"Dallas, TX", geo::GeoPoint(32.78, -96.80)});
    fast.AddPop({"Memphis, TN", geo::GeoPoint(35.15, -90.05)});
    fast.AddPop({"Atlanta, GA", geo::GeoPoint(33.75, -84.39)});
    fast.AddLink(0, 1);
    fast.AddLink(1, 2);

    Network slow("SlowNet", NetworkKind::kTier1);
    slow.AddPop({"Dallas, TX", geo::GeoPoint(32.79, -96.81)});
    slow.AddPop({"Denver, CO", geo::GeoPoint(39.74, -104.99)});
    slow.AddPop({"Chicago, IL", geo::GeoPoint(41.88, -87.63)});
    slow.AddPop({"Atlanta, GA", geo::GeoPoint(33.76, -84.40)});
    slow.AddLink(0, 1);
    slow.AddLink(1, 2);
    slow.AddLink(2, 3);

    Network reg("Metro", NetworkKind::kRegional);
    reg.AddPop({"Dallas, TX", geo::GeoPoint(32.80, -96.79)});
    reg.AddPop({"Houston, TX", geo::GeoPoint(29.76, -95.37)});
    reg.AddLink(0, 1);

    Network far_reg("Coastal", NetworkKind::kRegional);
    far_reg.AddPop({"Atlanta, GA", geo::GeoPoint(33.77, -84.38)});
    far_reg.AddPop({"Savannah, GA", geo::GeoPoint(32.08, -81.09)});
    far_reg.AddLink(0, 1);

    corpus.AddNetwork(std::move(fast));
    corpus.AddNetwork(std::move(slow));
    corpus.AddNetwork(std::move(reg));
    corpus.AddNetwork(std::move(far_reg));
    corpus.AddPeering(0, 1);  // tier-1 mesh
    corpus.AddPeering(1, 2);  // Metro -> SlowNet
    corpus.AddPeering(0, 3);  // Coastal -> FastNet

    population::CensusOptions census_options;
    census_options.block_count = 20000;
    census = std::make_unique<population::CensusModel>(
        population::CensusModel::Synthesize(census_options));

    util::Rng rng(8);
    std::vector<hazard::Catalog> catalogs;
    catalogs.emplace_back(
        hazard::HazardType::kFemaStorm,
        hazard::SampleMixture({{geo::GeoPoint(34.0, -92.0), 1.0, 200.0}}, 500,
                              rng));
    field = std::make_unique<hazard::HistoricalRiskField>(
        catalogs, std::vector<double>{60.0});
    for (std::size_t n = 0; n < corpus.network_count(); ++n) {
      impacts.push_back(
          population::ImpactModel::Build(corpus.network(n), *census));
    }
  }
};

TEST(Peering, CandidatesExcludeExistingPeersAndSelf) {
  PeeringFixture f;
  const auto candidates = EnumerateCandidatePeers(f.corpus, 2, 25.0);
  // Metro (index 2) peers with SlowNet already; FastNet is co-located in
  // Dallas and not yet a peer -> exactly one candidate.
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].network, 0u);
  ASSERT_FALSE(candidates[0].pairs.empty());
  EXPECT_LE(candidates[0].pairs[0].miles, 25.0);
}

TEST(Peering, NoCandidatesWhenNothingColocated) {
  PeeringFixture f;
  // Coastal's PoPs are not within 25 miles of SlowNet?  Atlanta is. Use a
  // tiny radius to force emptiness.
  const auto candidates = EnumerateCandidatePeers(f.corpus, 3, 0.1);
  EXPECT_TRUE(candidates.empty());
}

TEST(Peering, RecommendationImprovesObjective) {
  PeeringFixture f;
  core::MergedGraph merged = core::BuildMergedGraph(f.corpus, f.impacts, *f.field);
  const auto recommendation =
      RecommendPeering(core::RouteEngine(merged.graph, RiskParams{1e5, 0}),
                       merged, f.corpus, 2);
  ASSERT_NE(recommendation.best(), nullptr);
  EXPECT_EQ(recommendation.best()->peer.network, 0u);
  EXPECT_LE(recommendation.best()->objective,
            recommendation.baseline_objective + 1e-9);
}

TEST(Peering, MergedGraphRestoredAfterEvaluation) {
  PeeringFixture f;
  core::MergedGraph merged = core::BuildMergedGraph(f.corpus, f.impacts, *f.field);
  const std::size_t edges_before = merged.graph.directed_edge_count();
  (void)RecommendPeering(core::RouteEngine(merged.graph, RiskParams{1e5, 0}),
                         merged, f.corpus, 2);
  EXPECT_EQ(merged.graph.directed_edge_count(), edges_before);
}

TEST(Peering, EvaluationsSortedByObjective) {
  PeeringFixture f;
  core::MergedGraph merged = core::BuildMergedGraph(f.corpus, f.impacts, *f.field);
  const auto recommendation =
      RecommendPeering(core::RouteEngine(merged.graph, RiskParams{1e5, 0}),
                       merged, f.corpus, 3);
  for (std::size_t i = 1; i < recommendation.evaluations.size(); ++i) {
    EXPECT_LE(recommendation.evaluations[i - 1].objective,
              recommendation.evaluations[i].objective);
  }
}

TEST(Peering, IndexValidation) {
  PeeringFixture f;
  EXPECT_THROW((void)EnumerateCandidatePeers(f.corpus, 99, 25.0),
               InvalidArgument);
  // The network index is validated before it indexes the merged graph.
  const core::MergedGraph merged =
      core::BuildMergedGraph(f.corpus, f.impacts, *f.field);
  EXPECT_THROW(
      (void)RecommendPeering(core::RouteEngine(merged.graph, RiskParams{1e5, 0}),
                             merged, f.corpus, 99),
      InvalidArgument);
}

}  // namespace
}  // namespace riskroute::provision
