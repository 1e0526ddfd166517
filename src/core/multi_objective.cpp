#include "core/multi_objective.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace riskroute::core {

MultiObjectiveRouter::MultiObjectiveRouter(const RouteEngine& engine,
                                           std::size_t candidates_per_objective)
    : engine_(engine), k_(candidates_per_objective) {
  if (k_ == 0) {
    throw InvalidArgument("MultiObjectiveRouter: need at least one candidate");
  }
}

std::vector<RouteObjectives> MultiObjectiveRouter::Candidates(
    std::size_t i, std::size_t j) const {
  const double alpha = engine_.Alpha(i, j);

  // Both enumerations run on the frozen engine: alpha = 0 is the distance
  // objective, alpha_ij the bit-risk objective.
  std::vector<WeightedPath> pool = KShortestPaths(engine_, i, j, k_, 0.0);
  for (WeightedPath& wp : KShortestPaths(engine_, i, j, k_, alpha)) {
    pool.push_back(std::move(wp));
  }

  std::vector<RouteObjectives> candidates;
  candidates.reserve(pool.size());
  for (const WeightedPath& wp : pool) {
    const bool duplicate = std::any_of(
        candidates.begin(), candidates.end(),
        [&](const RouteObjectives& r) { return r.path == wp.path; });
    if (duplicate) continue;
    // KShortestPaths already measured every path on the frozen planes.
    candidates.push_back(RouteObjectives{
        {wp.miles, wp.bit_risk_miles}, wp.path, MilesToLatencyMs(wp.miles)});
  }
  return candidates;
}

std::vector<RouteObjectives> MultiObjectiveRouter::ParetoFront(
    std::size_t i, std::size_t j) const {
  std::vector<RouteObjectives> candidates = Candidates(i, j);
  std::sort(candidates.begin(), candidates.end(),
            [](const RouteObjectives& a, const RouteObjectives& b) {
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms < b.latency_ms;
              }
              return a.bit_risk_miles < b.bit_risk_miles;
            });
  std::vector<RouteObjectives> front;
  double best_risk = std::numeric_limits<double>::infinity();
  for (RouteObjectives& route : candidates) {
    if (route.bit_risk_miles < best_risk - 1e-12) {
      best_risk = route.bit_risk_miles;
      front.push_back(std::move(route));
    }
  }
  return front;
}

std::optional<RouteObjectives> MultiObjectiveRouter::MinRiskWithinLatency(
    std::size_t i, std::size_t j, double max_latency_ms) const {
  std::optional<RouteObjectives> best;
  for (RouteObjectives& route : ParetoFront(i, j)) {
    if (route.latency_ms <= max_latency_ms &&
        (!best || route.bit_risk_miles < best->bit_risk_miles)) {
      best = std::move(route);
    }
  }
  return best;
}

std::optional<RouteObjectives> MultiObjectiveRouter::Scalarized(
    std::size_t i, std::size_t j, double risk_weight) const {
  if (risk_weight < 0.0 || risk_weight > 1.0) {
    throw InvalidArgument("Scalarized: risk_weight must be in [0, 1]");
  }
  const std::vector<RouteObjectives> front = ParetoFront(i, j);
  if (front.empty()) return std::nullopt;
  double min_latency = std::numeric_limits<double>::infinity();
  double min_risk = std::numeric_limits<double>::infinity();
  for (const RouteObjectives& route : front) {
    min_latency = std::min(min_latency, route.latency_ms);
    min_risk = std::min(min_risk, route.bit_risk_miles);
  }
  min_latency = std::max(min_latency, 1e-9);
  min_risk = std::max(min_risk, 1e-9);

  const RouteObjectives* best = nullptr;
  double best_score = std::numeric_limits<double>::infinity();
  for (const RouteObjectives& route : front) {
    const double score =
        (1.0 - risk_weight) * route.latency_ms / min_latency +
        risk_weight * route.bit_risk_miles / min_risk;
    if (score < best_score) {
      best_score = score;
      best = &route;
    }
  }
  return *best;
}

}  // namespace riskroute::core
