// Monte-Carlo outage simulation.
//
// End-to-end validation of the bit-risk metric: if o_h really predicts
// where disasters strike, then routes that minimize bit-risk miles should
// traverse disaster-stricken PoPs less often than geographic shortest
// paths do. Trial k is EnsembleEngine::Draw(k) with no footprint jitter,
// fringe failures or link cuts: one archive event from the historical
// catalogs (so the event geography matches the risk model's training
// data) disables every PoP inside its damage radius. Each trial measures
// the traffic volume whose stored path crossed a disabled PoP —
// separately for shortest-path routing and RiskRoute routing, both read
// from core::PairRoutes tables. The paper motivates exactly this
// comparison qualitatively (Sections 1 and 5); the simulator quantifies
// it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/route_engine.h"
#include "hazard/catalog.h"
#include "sim/traffic.h"
#include "util/thread_pool.h"

namespace riskroute::sim {

/// Simulation configuration.
struct OutageSimOptions {
  std::size_t trials = 2000;
  /// Philox key of the trial draws.
  std::uint64_t seed = 2024;
  /// Multiplies every hazard type's default damage radius; finite, > 0.
  double damage_radius_scale = 1.0;
};

/// Aggregate outcome over all trials.
struct OutageSimReport {
  std::size_t trials = 0;
  /// Mean fraction of traffic whose *transit* path crossed a disabled PoP
  /// (endpoint loss excluded — no routing can save a dead endpoint).
  double shortest_path_affected = 0.0;
  double riskroute_affected = 0.0;
  /// Mean fraction of traffic whose endpoints were themselves disabled
  /// (identical for both routings; reported for context).
  double endpoint_loss = 0.0;
  /// Mean number of PoPs disabled per event.
  double mean_pops_disabled = 0.0;

  /// riskroute_affected / shortest_path_affected: 1.0 when both are zero,
  /// +infinity when only RiskRoute lost transit traffic; < 1 means
  /// risk-aware routing dodged damage.
  [[nodiscard]] double AffectedRatio() const;
};

/// Runs the simulation over a frozen engine (RiskRoute at the engine's
/// params). Each unordered pair's traffic, both directions, rides its one
/// stored path per routing. Trials run parallel over `pool` into
/// per-trial slots summed in trial order, so the report is bitwise
/// identical for any pool size. Throws InvalidArgument on an empty catalog
/// list, zero trials, a traffic matrix of the wrong size or a damage
/// radius scale that is not finite and positive.
[[nodiscard]] OutageSimReport RunOutageSimulation(
    const core::RouteEngine& engine,
    const std::vector<hazard::Catalog>& catalogs, const TrafficMatrix& traffic,
    const OutageSimOptions& options = {}, util::ThreadPool* pool = nullptr);

}  // namespace riskroute::sim
