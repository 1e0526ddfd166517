// Greedy link augmentation (paper Section 6.3, Equation 4; Figures 9/10).
//
// The single best additional link is the candidate e in E_C minimizing the
// aggregate minimum bit-risk miles over all PoP pairs (Eq 4); for k > 1
// links the paper applies the same rule greedily against the network with
// the previously chosen links already added.
#pragma once

#include <cstddef>
#include <vector>

#include "core/route_engine.h"
#include "provision/candidate_links.h"
#include "util/thread_pool.h"

namespace riskroute::provision {

/// One greedy step's outcome.
struct AugmentationStep {
  CandidateLink link;
  /// Eq 4 objective after adding this link (and all previous steps'):
  /// the aggregate of per-pair bit_risk_miles, in the shared PathMetrics
  /// spelling.
  double bit_risk_miles = 0.0;
  /// bit_risk_miles / original — the paper's Figure 10 y-axis
  /// ("fraction of original bit-risk miles").
  double fraction_of_original = 0.0;
};

/// Full greedy augmentation result.
struct AugmentationResult {
  /// Eq 4 aggregate bit_risk_miles of the unaugmented network.
  double original_bit_risk_miles = 0.0;
  std::vector<AugmentationStep> steps;  // in greedy order (best first)
};

/// Augmentation options.
struct AugmentationOptions {
  std::size_t links_to_add = 1;
  CandidateOptions candidates;
};

/// Eq 4 objective of every candidate, each scored as if added alone on top
/// of the `accepted` overlay. Uses the exact single-edge incremental
/// identity — two full bit-risk sweeps per PoP pair, then every candidate
/// is d'(i,j) = min(d(i,j), via-candidate) in O(1) — instead of one
/// all-pairs sweep per candidate. Values match a full re-sweep up to
/// floating-point association order, so callers re-check near-ties with
/// the exact overlay objective before committing to a winner.
[[nodiscard]] std::vector<double> ScanCandidateObjectives(
    const core::RouteEngine& engine, const core::EdgeOverlay& accepted,
    const std::vector<CandidateLink>& candidates,
    util::ThreadPool* pool = nullptr);

/// Runs greedy augmentation against a frozen engine. Candidates are
/// evaluated as overlays — zero graph copies, zero mutations. Stops early
/// if candidates run out or no candidate improves the objective.
[[nodiscard]] AugmentationResult GreedyAugment(
    const core::RouteEngine& engine, const AugmentationOptions& options,
    util::ThreadPool* pool = nullptr);

}  // namespace riskroute::provision
