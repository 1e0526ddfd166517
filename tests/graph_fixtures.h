// Random graph fixtures shared by the test suites. Each fixture's draw
// order is part of its contract: suites compare against values computed
// on these exact graphs, so a reordered draw changes every fixture.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/risk_graph.h"
#include "geo/geo_point.h"
#include "util/rng.h"

namespace riskroute::fixtures {

/// Random connected geometric graph with random risk attributes over the
/// continental US: normalized impact fractions, a random spanning tree,
/// then every other pair with probability `extra_edge_prob`.
inline core::RiskGraph RandomGraph(std::size_t n, double extra_edge_prob,
                                   util::Rng& rng) {
  core::RiskGraph graph;
  std::vector<double> fractions(n);
  double fraction_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    fractions[i] = rng.Uniform(0.01, 1.0);
    fraction_sum += fractions[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    graph.AddNode(core::RiskNode{
        "n" + std::to_string(i),
        geo::GeoPoint(rng.Uniform(26, 48), rng.Uniform(-123, -68)),
        fractions[i] / fraction_sum, rng.Uniform(0.0, 0.5),
        rng.Chance(0.3) ? rng.Uniform(0.0, 100.0) : 0.0});
  }
  for (std::size_t i = 1; i < n; ++i) {
    graph.AddEdgeByDistance(
        i, static_cast<std::size_t>(
               rng.UniformInt(0, static_cast<std::int64_t>(i) - 1)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!graph.HasEdge(i, j) && rng.Chance(extra_edge_prob)) {
        graph.AddEdgeByDistance(i, j);
      }
    }
  }
  return graph;
}

/// Sparse "pop-<i>" network: a random spanning tree plus a chord from
/// every third PoP, with unnormalized impact fractions.
inline core::RiskGraph SampleGraph(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  core::RiskGraph graph;
  for (std::size_t i = 0; i < n; ++i) {
    graph.AddNode(core::RiskNode{
        "pop-" + std::to_string(i),
        geo::GeoPoint(rng.Uniform(26, 48), rng.Uniform(-123, -68)),
        rng.Uniform(0.01, 1.0), rng.Uniform(0.0, 0.5),
        rng.Chance(0.5) ? rng.Uniform(0.0, 50.0) : 0.0});
  }
  for (std::size_t i = 1; i < n; ++i) {
    graph.AddEdgeByDistance(
        i, static_cast<std::size_t>(
               rng.UniformInt(0, static_cast<std::int64_t>(i) - 1)));
  }
  for (std::size_t i = 0; i + 3 < n; i += 3) graph.AddEdgeByDistance(i, i + 3);
  return graph;
}

}  // namespace riskroute::fixtures
