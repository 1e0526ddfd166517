// riskroute::api — the typed request/response layer of the library.
//
// Service owns one frozen core::RouteEngine (plus the lazily synthesized
// hazard catalogs an ensemble run needs and the lazily swept per-pair
// baseline table the ensemble and stream queries share) and answers
// the four query families the riskroute CLI exposes: route, ratios,
// ensemble, provision. Each query takes a small request struct and
// returns a response struct carrying both the structured result and
// `body` — the exact stdout bytes the equivalent CLI subcommand prints.
// The CLI subcommands and the riskroute_serverd handlers are both thin
// adapters over this one layer, which is what makes the serverd
// correctness contract ("a served response body is byte-identical to the
// CLI's output against the same snapshot") hold by construction rather
// than by parallel maintenance of two formatters.
//
// Thread safety: every query method is const and safe to call
// concurrently from multiple threads. The underlying engine sweeps are
// bitwise thread-count independent (the PR 2 contract), so a response
// body is a pure function of (engine, request) regardless of the pool
// size or concurrent callers.
//
// Metrics: each query increments `api.requests.<kind>` (stable) and
// records an `api.<kind>` trace span (volatile wall clock).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/pair_routes.h"
#include "core/risk_params.h"
#include "core/route_engine.h"
#include "forecast/streaming.h"
#include "hazard/catalog.h"
#include "provision/augmentation.h"
#include "sim/ensemble.h"
#include "sim/triage.h"
#include "util/parse_result.h"
#include "util/thread_pool.h"

namespace riskroute::api {

/// Service construction options.
struct ServiceOptions {
  /// Borrowed worker pool; must outlive the Service. When null every
  /// query runs serially (util::ParallelFor's null-pool rule).
  util::ThreadPool* pool = nullptr;
};

/// One point-to-point route query (CLI: `riskroute route`).
struct RouteRequest {
  std::string from = "Houston, TX";
  std::string to = "Boston, MA";
};

/// Route result: both paths, their shared metrics, and the CLI body
/// (route lines + the per-hop Eq 1 decomposition table).
struct RouteResponse {
  /// False when the PoPs share no path; every other field is then empty
  /// (the CLI prints "PoPs are not connected" to stderr and exits 1).
  bool connected = false;
  double alpha = 0.0;  // alpha_ij of the endpoints
  core::Path shortest_path;
  core::Path riskroute_path;
  core::PathMetrics shortest;
  core::PathMetrics riskroute;
  std::string body;
};

/// Eq 5/6 ratio sweep over every frozen PoP pair (CLI: `riskroute
/// ratios`). `label` is the table's network column (the CLI passes the
/// network name, or "snapshot" for snapshot boots).
struct RatiosRequest {
  std::string label = "snapshot";
};

struct RatiosResponse {
  core::RatioReport report;
  std::size_t pops = 0;
  std::string body;  // the rendered single-row table
};

/// Monte Carlo outage ensemble (CLI: `riskroute ensemble`). Defaults
/// mirror the CLI flag defaults the golden fixtures pin.
///
/// With `triage` set, the run goes through sim::TriagedEnsemble: exact
/// engine work only for pilot/audit/flagged/sampled scenarios, the rest
/// carried by Horvitz-Thompson reweighting. The knobs are integers
/// (rate in parts-per-million) so the wire codec, the CLI and the
/// service quantize identically and served bodies stay byte-equal to
/// CLI stdout.
struct EnsembleRequest {
  std::size_t scenarios = 256;
  std::uint64_t seed = 2026;
  int month = 0;  // 0 = annual archive, 1-12 = season filter
  std::size_t top = 10;
  bool json = false;  // body = ToJson() instead of the human summary
  bool triage = false;
  std::size_t pilot = 96;         // exact pilot batch (surrogate fit)
  std::size_t audit_stride = 64;  // calibration lane: ids % stride == 0
  std::uint32_t base_rate_ppm = 50000;  // sampled-lane keep rate, ppm
};

struct EnsembleResponse {
  /// Plain run: the exact report. Triaged run: the HT-weighted estimate
  /// (triage accounting lives in `triaged`).
  sim::EnsembleReport report;
  /// Engaged iff the request asked for triage.
  std::optional<sim::TriagedReport> triaged;
  std::string body;
};

/// One advisory bulletin pushed into the rolling re-route session
/// (CLI: `riskroute stream`; serverd frame kind kStreamAdvisory). The
/// session is created on the first request and reused across requests
/// until `reset` starts a fresh one; every session starts from the
/// Service's shared baseline pair table, so a reset sweeps nothing.
struct StreamAdvisoryRequest {
  std::string bulletin;
  bool reset = false;
  std::size_t top = 3;  // moves rendered in the body
};

/// The structured routing diff plus the rendered body. A parseable
/// bulletin answers with source "live"; an unreadable one reverts the
/// session to the static baseline plane and answers with source
/// "static-fallback" (the live-feed mitigation pattern) rather than
/// failing the request. Sequencing violations (duplicate or
/// out-of-order advisory numbers) DO throw InvalidArgument: the feed is
/// readable but the caller replayed it wrong.
struct RouteDiffResponse {
  forecast::RouteDiff diff;
  std::string body;
};

/// Greedy link augmentation (CLI: `riskroute augment`).
struct ProvisionRequest {
  std::size_t links = 5;
};

struct ProvisionResponse {
  provision::AugmentationResult result;
  std::string body;
};

/// The query service: one frozen engine, four query families.
class Service {
 public:
  /// Takes ownership of a prepared engine (ALT landmarks and forecast
  /// risks included — Service never mutates it).
  explicit Service(core::RouteEngine engine, const ServiceOptions& options = {});

  /// Boots from an engine-snapshot file (the `riskroute freeze` output).
  /// Hostile bytes surface as the loader's ParseDiagnostic.
  [[nodiscard]] static util::ParseResult<Service> FromSnapshotFile(
      const std::string& path, const ServiceOptions& options = {});

  Service(Service&&) = default;
  Service& operator=(Service&&) = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Throws InvalidArgument when a PoP name does not exist in the frozen
  /// network (same message as the CLI). A connected=false response is not
  /// an error — disconnected PoPs are a property of the topology.
  [[nodiscard]] RouteResponse Route(const RouteRequest& request) const;

  [[nodiscard]] RatiosResponse Ratios(const RatiosRequest& request) const;

  /// Throws InvalidArgument on zero scenarios, a month outside 0-12, or
  /// a season filter with no eligible events (EnsembleEngine contract).
  [[nodiscard]] EnsembleResponse Ensemble(const EnsembleRequest& request) const;

  /// Throws InvalidArgument when links == 0.
  [[nodiscard]] ProvisionResponse Provision(const ProvisionRequest& request) const;

  /// Rolling incremental re-route; see StreamAdvisoryRequest. Requests
  /// serialize on the session (concurrent callers queue briefly).
  [[nodiscard]] RouteDiffResponse StreamAdvisory(
      const StreamAdvisoryRequest& request) const;

  [[nodiscard]] const core::RouteEngine& engine() const { return *engine_; }

 private:
  /// Lazily synthesized hazard catalogs for ensemble runs. The vector is
  /// a stable member: EnsembleEngine keeps a pointer into it.
  [[nodiscard]] const std::vector<hazard::Catalog>& Catalogs() const;

  /// The engine's per-pair baseline table, swept once on the pool by the
  /// first ensemble or stream request; route, ratios and provision
  /// requests never build it.
  [[nodiscard]] const std::shared_ptr<const core::PairRoutes>& Routes() const;

  // Heap-held so the pair table and the stream session, which point at
  // the engine, stay valid when the Service moves.
  std::unique_ptr<const core::RouteEngine> engine_;
  util::ThreadPool* pool_ = nullptr;

  // Lazy state lives behind a pointer so Service stays movable
  // (std::once_flag and std::mutex are not).
  struct Lazy {
    std::once_flag catalogs_once;
    std::vector<hazard::Catalog> catalogs;
    std::once_flag routes_once;
    std::shared_ptr<const core::PairRoutes> routes;
    std::mutex stream_mutex;
    std::unique_ptr<forecast::StreamingReroute> stream;
  };
  std::unique_ptr<Lazy> lazy_ = std::make_unique<Lazy>();
};

}  // namespace riskroute::api
