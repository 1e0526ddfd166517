// <riskroute/api.h> — the single public umbrella of the RiskRoute
// library, installed for applications.
//
// The typed surface is riskroute::api (api/service.h): a Service that
// owns a frozen engine and answers route / ratios / ensemble / provision
// requests with structured responses whose `body` is byte-identical to
// the CLI's output. Everything else re-exported here is the supporting
// cast applications commonly need around a Service: assembling a study,
// freezing/loading engines, hazard + forecast risk models, provisioning,
// simulation, geometry helpers, and the obs:: metrics registry. Anything
// not exported here is library-internal and may change without notice.
//
// The stable spine:
//
//   api::Service         — typed query layer (route/ratios/ensemble/provision)
//   core::Study          — synthesized corpus + census + hazard fields
//   core::RouteEngine    — frozen CSR graph; every routing query; snapshots
//   core::PathMetrics    — the shared {miles, bit_risk_miles} result base
//   provision::GreedyAugment / RecommendPeering
//   obs::MetricsRegistry — process-wide counters/histograms + DumpJson
#pragma once

// The typed request/response layer.
#include "api/service.h"

// Core: graph substrate, frozen engine, routers, result types.
#include "core/backup_paths.h"
#include "core/disjoint_paths.h"
#include "core/edge_overlay.h"
#include "core/interdomain.h"
#include "core/k_shortest.h"
#include "core/multi_objective.h"
#include "core/ospf_export.h"
#include "core/path_metrics.h"
#include "core/risk_graph.h"
#include "core/risk_params.h"
#include "core/route_engine.h"
#include "core/study.h"

// Hazard + forecast risk models feeding the engine.
#include "forecast/forecast_risk.h"
#include "forecast/parser.h"
#include "forecast/tracks.h"
#include "hazard/risk_field.h"
#include "hazard/synthesis.h"

// Provisioning: link augmentation and peering recommendation.
#include "provision/augmentation.h"
#include "provision/peering.h"

// Outage simulation + Monte Carlo ensemble.
#include "sim/ensemble.h"
#include "sim/outage_sim.h"
#include "sim/traffic.h"

// Observability: metrics registry, scoped timers, JSON export.
#include "obs/metrics.h"

// Geometry + shared utilities applications commonly need alongside.
#include "geo/bounding_box.h"
#include "geo/distance.h"
#include "util/csv.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace riskroute {

/// Serializes every metric recorded so far by the process-wide registry
/// (see obs::MetricsRegistry::DumpJson for the schema).
[[nodiscard]] inline std::string DumpMetricsJson(bool include_volatile = true) {
  return obs::MetricsRegistry::Global().DumpJson(include_volatile);
}

}  // namespace riskroute
