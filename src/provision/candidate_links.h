// Candidate-link enumeration for the robustness analysis
// (paper Section 6.3).
//
// E_C is the set of links that (a) do not currently exist, and (b) would
// cut the bit-miles between their endpoints by more than 50% versus the
// current shortest path — the paper's filter for "impractical
// cross-country links".
#pragma once

#include <cstddef>
#include <vector>

#include "core/route_engine.h"
#include "util/thread_pool.h"

namespace riskroute::provision {

/// One candidate addition.
struct CandidateLink {
  std::size_t a = 0;
  std::size_t b = 0;
  double direct_miles = 0.0;        // line-of-sight length of the new link
  double current_path_miles = 0.0;  // today's shortest-path mileage
};

/// Enumeration options.
struct CandidateOptions {
  /// Minimum fractional bit-mile reduction (the paper's > 50%).
  double min_mile_reduction = 0.5;
  /// Keep at most this many candidates (largest absolute mile savings
  /// first); 0 = unlimited. Bounds the exact-objective sweep on large
  /// networks like Level3 (233 PoPs).
  std::size_t max_candidates = 0;
};

/// Enumerates E_C over a frozen engine (unordered pairs, a < b). Pairs in
/// different connected components are skipped. A thread pool parallelizes
/// the underlying all-pairs shortest-path sweep.
[[nodiscard]] std::vector<CandidateLink> EnumerateCandidateLinks(
    const core::RouteEngine& engine, const CandidateOptions& options = {},
    util::ThreadPool* pool = nullptr);

}  // namespace riskroute::provision
