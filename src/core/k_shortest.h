// Yen's k-shortest loopless paths over a frozen RouteEngine.
//
// Substrate for the multi-objective extension the paper sketches in
// Section 6.4 ("the RiskRoute framework could easily be expanded to
// include multiple objective functions that would balance risk and
// SLA-related issues such as latency"): enumerating the k best paths under
// one weight exposes the candidate set over which other objectives are
// traded off, and is also the standard building block for MPLS explicit
// backup paths (Section 3.1).
#pragma once

#include <cstddef>
#include <vector>

#include "core/path_metrics.h"
#include "core/route_engine.h"

namespace riskroute::core {

/// One enumerated path with its weight under the enumeration objective,
/// plus the shared PathMetrics (miles and bit_risk_miles from the frozen
/// planes).
struct WeightedPath : PathMetrics {
  Path path;
  double weight = 0.0;
};

/// Yen's algorithm: up to `k` loopless paths from `source` to `target` in
/// ascending order of weight miles + alpha * score (alpha = 0 is the
/// distance metric; fewer paths if the graph admits fewer). Spur masking
/// runs as EdgeOverlay removals/disables on the frozen CSR. An optional
/// `base` overlay (e.g. a failure scenario) applies to every search; spur
/// masks layer on top of it. Throws InvalidArgument on bad nodes or
/// k == 0.
[[nodiscard]] std::vector<WeightedPath> KShortestPaths(
    const RouteEngine& engine, std::size_t source, std::size_t target,
    std::size_t k, double alpha, const EdgeOverlay* base = nullptr);

}  // namespace riskroute::core
