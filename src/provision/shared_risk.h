// Shared-risk analysis between two ISPs.
//
// Listed by the paper as future work ("assessing shared risk between
// multiple ISPs using RiskRoute", Section 8). Two networks share risk when
// one disaster can damage both — which defeats multihoming as a resilience
// strategy. This module quantifies it three ways: geographic co-location
// of infrastructure, the probability that a single historical-catalog
// event disables PoPs of both networks at once, and the phi correlation of
// the two networks' per-event outage indicators.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "hazard/catalog.h"
#include "topology/network.h"

namespace riskroute::provision {

/// Analysis knobs.
struct SharedRiskOptions {
  /// PoPs within this distance count as co-located infrastructure.
  double colocation_radius_miles = 25.0;
  /// Damage radius of a sampled event; <= 0 uses the per-type
  /// hazard::DefaultDamageRadiusMiles.
  double damage_radius_miles = 100.0;
  std::size_t trials = 4000;
  std::uint64_t seed = 77;
};

/// Result of AnalyzeSharedRisk.
struct SharedRiskReport {
  /// Fraction of A's PoPs with a B PoP within the co-location radius, and
  /// vice versa.
  double overlap_a_in_b = 0.0;
  double overlap_b_in_a = 0.0;
  /// Probability that one sampled disaster event disables at least one
  /// PoP of A (resp. B, resp. both simultaneously).
  double outage_probability_a = 0.0;
  double outage_probability_b = 0.0;
  double joint_outage_probability = 0.0;
  /// Phi (Matthews) correlation of the per-event outage indicators; 0 =
  /// independent fates, 1 = the networks always fail together.
  double outage_correlation = 0.0;
  std::size_t trials = 0;

  /// joint / (p_a * p_b): > 1 means failures co-occur more often than
  /// independence predicts (shared fate).
  [[nodiscard]] double JointLift() const;
};

/// Samples `trials` events from the catalogs (weighted by event count) and
/// measures the fate indicators. Trial t draws from a counter-based
/// Philox stream keyed (seed, t), so the report is a pure function of
/// (inputs, seed) — independent of trial evaluation order, matching the
/// determinism contract of the ensemble engine.
[[nodiscard]] SharedRiskReport AnalyzeSharedRisk(
    const topology::Network& a, const topology::Network& b,
    const std::vector<hazard::Catalog>& catalogs,
    const SharedRiskOptions& options = {});

}  // namespace riskroute::provision
