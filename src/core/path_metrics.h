// PathMetrics: the shared per-path measurement every routing surface
// reports. Result structs across the library (core::RouteObjectives,
// core::WeightedPath) inherit it so callers read the same two field names
// everywhere. Aggregate objectives (Eq 4 sums) use the same
// `bit_risk_miles` spelling for the summed quantity.
#pragma once

namespace riskroute::core {

/// Measurements of one path under the paper's two metrics.
struct PathMetrics {
  /// Plain mileage of the path (sum of hop distances).
  double miles = 0.0;
  /// Eq 1 bit-risk miles of the path; endpoints define alpha.
  double bit_risk_miles = 0.0;
};

}  // namespace riskroute::core
