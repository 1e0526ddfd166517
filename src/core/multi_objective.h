// Multi-objective routing: balancing outage risk against SLA latency.
//
// The paper leaves this as an explicit extension (Section 6.4: "the
// RiskRoute framework could easily be expanded to include multiple
// objective functions that would balance risk and SLA-related issues such
// as latency in route calculations", at the cost of extra computation).
// This module implements that extension: candidate paths are enumerated
// with Yen's algorithm under both the distance and the bit-risk
// objectives, merged, and reduced to the Pareto front over
// (latency, bit-risk miles). Operators then pick a point — minimum risk
// within a latency budget, or a weighted scalarization.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/k_shortest.h"
#include "core/path_metrics.h"
#include "core/route_engine.h"

namespace riskroute::core {

/// Propagation latency model: milliseconds per statute mile of fiber
/// (light in glass at ~0.66c, plus the paper's line-of-sight paths being
/// shorter than real conduit — the constant is the conventional
/// ~0.0082 ms/mile one-way figure).
inline constexpr double kLatencyMsPerMile = 0.0082;

[[nodiscard]] inline double MilesToLatencyMs(double miles) {
  return miles * kLatencyMsPerMile;
}

/// A candidate route scored under every objective: the shared PathMetrics
/// (miles, bit_risk_miles) plus the latency this module trades off.
struct RouteObjectives : PathMetrics {
  Path path;
  double latency_ms = 0.0;
};

/// Pareto-front router over (latency, bit-risk) on a frozen engine, which
/// is held by reference and must outlive the router.
class MultiObjectiveRouter {
 public:
  /// `candidates_per_objective` bounds the Yen enumeration under each
  /// objective; the front can hold at most the merged candidate count.
  explicit MultiObjectiveRouter(const RouteEngine& engine,
                                std::size_t candidates_per_objective = 8);
  /// A temporary engine would dangle.
  MultiObjectiveRouter(RouteEngine&&, std::size_t = 8) = delete;

  /// Nondominated candidates, ascending latency (therefore descending
  /// risk). Empty when the pair is disconnected.
  [[nodiscard]] std::vector<RouteObjectives> ParetoFront(std::size_t i,
                                                         std::size_t j) const;

  /// Minimum bit-risk route whose one-way latency does not exceed
  /// `max_latency_ms`; nullopt when no candidate fits the budget.
  [[nodiscard]] std::optional<RouteObjectives> MinRiskWithinLatency(
      std::size_t i, std::size_t j, double max_latency_ms) const;

  /// Scalarized pick from the front: minimizes
  /// (1 - risk_weight) * latency/latency_min + risk_weight * risk/risk_min,
  /// with risk_weight in [0, 1]. nullopt when disconnected.
  [[nodiscard]] std::optional<RouteObjectives> Scalarized(
      std::size_t i, std::size_t j, double risk_weight) const;

 private:
  [[nodiscard]] std::vector<RouteObjectives> Candidates(std::size_t i,
                                                        std::size_t j) const;

  const RouteEngine& engine_;  // both Yen enumerations run on it
  std::size_t k_;
};

}  // namespace riskroute::core
