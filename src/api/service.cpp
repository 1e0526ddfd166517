#include "api/service.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "forecast/parser.h"
#include "hazard/synthesis.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

namespace riskroute::api {
namespace {

/// Resolves a PoP name against the frozen engine; same lookup and same
/// error message as the CLI's require_pop.
std::size_t RequirePop(const core::RouteEngine& engine,
                       const std::string& name) {
  for (std::size_t i = 0; i < engine.node_count(); ++i) {
    if (engine.node_name(i) == name) return i;
  }
  throw InvalidArgument("no PoP named '" + name + "' in this network");
}

/// "<label>: M mi, B bit-risk mi\n  A -> B -> C\n" — byte-identical to
/// the CLI's print_route.
std::string RenderRouteLine(const core::RouteEngine& engine,
                            const char* label, const core::Path& path,
                            double miles, double brm) {
  std::string out = util::Format("%s: %.0f mi, %.0f bit-risk mi\n  ", label,
                                 miles, brm);
  for (std::size_t i = 0; i < path.size(); ++i) {
    out += engine.node_name(path[i]);
    out += i + 1 == path.size() ? "\n" : " -> ";
  }
  return out;
}

/// The per-hop Eq 1 decomposition table of the chosen route.
std::string RenderHopTable(const core::RouteEngine& engine,
                           const core::Path& path, double alpha) {
  std::string out =
      util::Format("\nper-hop bit-risk miles (alpha_ij = %.4g):\n", alpha);
  out += util::Format("  %-44s %10s %12s %12s %12s\n", "hop", "miles",
                      "risk term", "hop total", "cumulative");
  double cumulative = 0.0;
  for (std::size_t k = 1; k < path.size(); ++k) {
    const std::size_t u = path[k - 1];
    const std::size_t v = path[k];
    double hop_miles = 0.0;
    for (std::size_t e = engine.EdgeBegin(u); e < engine.EdgeEnd(u); ++e) {
      if (engine.EdgeHead(e) == v) {
        hop_miles = engine.EdgeMiles(e);
        break;
      }
    }
    const double risk_term = alpha * engine.NodeScore(v);
    cumulative += hop_miles + risk_term;
    const std::string hop = engine.node_name(u) + " -> " + engine.node_name(v);
    out += util::Format("  %-44s %10.1f %12.1f %12.1f %12.1f\n", hop.c_str(),
                        hop_miles, risk_term, hop_miles + risk_term,
                        cumulative);
  }
  return out;
}

/// The ensemble human summary (the CLI's non---json output).
std::string RenderEnsembleText(const core::RouteEngine& engine,
                               const sim::EnsembleReport& report) {
  std::string out = util::Format(
      "scenarios %zu (seed %zu) | baseline %.6g bit-risk mi over "
      "%zu pairs\n",
      report.scenarios, static_cast<std::size_t>(report.seed),
      report.baseline_bit_risk_miles, report.baseline_pairs);
  out += util::Format(
      "delta bit-risk mi: mean %.6g sd %.6g | p5 %.6g p50 %.6g "
      "p95 %.6g | max %.6g\n",
      report.delta_mean, std::sqrt(report.delta_variance), report.delta_p5,
      report.delta_p50, report.delta_p95, report.delta_max);
  out += util::Format(
      "per scenario: %.2f failed PoPs, %.2f severed links, "
      "%.2f dead-endpoint pairs, %.2f stranded pairs\n",
      report.mean_failed_pops, report.mean_severed_links,
      report.mean_endpoint_pairs, report.mean_disconnected_pairs);
  out += "\nmost critical links (by summed damage when out of service):\n";
  out += util::Format("  %-44s %8s %9s %14s\n", "link", "miles", "failures",
                      "mean delta");
  for (const auto& link : report.criticality) {
    const std::string name =
        engine.node_name(link.a) + " <-> " + engine.node_name(link.b);
    out += util::Format("  %-44s %8.0f %9zu %14.6g\n", name.c_str(),
                        link.miles, static_cast<std::size_t>(link.failures),
                        link.MeanDelta(report.scenarios));
  }
  return out;
}

/// The triaged-ensemble human summary: the estimate in the same shape as
/// the exact summary, plus the triage accounting and the audit-lane
/// calibration line.
std::string RenderTriagedText(const core::RouteEngine& engine,
                              const sim::TriagedReport& report) {
  std::string out = RenderEnsembleText(engine, report.estimate);
  out += util::Format(
      "\ntriage: %zu exact of %zu (%.1f%%) | pilot %zu, audit %zu, "
      "flagged %zu, sampled %zu, skipped %zu, empty %zu | %zu strata, "
      "weight sum %.6g\n",
      report.exact_evaluations, report.universe,
      100.0 * report.exact_fraction, report.pilot_exact, report.audit_exact,
      report.flagged_exact, report.sampled_exact, report.skipped,
      report.empty_scenarios, report.strata, report.weight_sum);
  out += util::Format(
      "calibration (%zu audits): mae %.6g rmse %.6g max %.6g bias %.6g | "
      "pilot residual sd %.6g r2 %.3f\n",
      report.calibration.audits, report.calibration.mean_abs_error,
      report.calibration.rmse, report.calibration.max_abs_error,
      report.calibration.bias, report.calibration.pilot_residual_sd,
      report.calibration.pilot_r2);
  return out;
}

obs::Counter& RequestCounter(const char* kind) {
  std::string name = "api.requests.";
  name += kind;
  return obs::MetricsRegistry::Global().GetCounter(name);
}

}  // namespace

Service::Service(core::RouteEngine engine, const ServiceOptions& options)
    : engine_(std::make_unique<const core::RouteEngine>(std::move(engine))),
      pool_(options.pool) {}

util::ParseResult<Service> Service::FromSnapshotFile(
    const std::string& path, const ServiceOptions& options) {
  auto loaded = core::RouteEngine::LoadSnapshotFile(path);
  if (!loaded.ok()) return loaded.error();
  return Service(std::move(loaded.value()), options);
}

const std::vector<hazard::Catalog>& Service::Catalogs() const {
  std::call_once(lazy_->catalogs_once, [this] {
    lazy_->catalogs = hazard::SynthesizeAllCatalogs();
  });
  return lazy_->catalogs;
}

const std::shared_ptr<const core::PairRoutes>& Service::Routes() const {
  std::call_once(lazy_->routes_once, [this] {
    lazy_->routes = std::make_shared<const core::PairRoutes>(*engine_, pool_);
  });
  return lazy_->routes;
}

RouteResponse Service::Route(const RouteRequest& request) const {
  static obs::TraceScope scope(obs::MetricsRegistry::Global(), "api.route");
  obs::TraceSpan span(scope);
  RequestCounter("route").Add();

  const std::size_t src = RequirePop(*engine_, request.from);
  const std::size_t dst = RequirePop(*engine_, request.to);

  RouteResponse response;
  response.alpha = engine_->Alpha(src, dst);
  const auto shortest_path = engine_->FindPath(src, dst, 0.0);
  const auto risky_path = engine_->FindPath(src, dst, response.alpha);
  if (!shortest_path || !risky_path) return response;

  response.connected = true;
  response.shortest_path = *shortest_path;
  response.riskroute_path = *risky_path;
  response.shortest = engine_->Measure(*shortest_path);
  response.riskroute = engine_->Measure(*risky_path);
  response.body =
      RenderRouteLine(*engine_, "shortest ", *shortest_path,
                      response.shortest.miles,
                      response.shortest.bit_risk_miles) +
      RenderRouteLine(*engine_, "riskroute", *risky_path,
                      response.riskroute.miles,
                      response.riskroute.bit_risk_miles) +
      RenderHopTable(*engine_, *risky_path, response.alpha);
  return response;
}

RatiosResponse Service::Ratios(const RatiosRequest& request) const {
  static obs::TraceScope scope(obs::MetricsRegistry::Global(), "api.ratios");
  obs::TraceSpan span(scope);
  RequestCounter("ratios").Add();

  std::vector<std::size_t> all(engine_->node_count());
  std::iota(all.begin(), all.end(), std::size_t{0});

  RatiosResponse response;
  response.report = engine_->ComputeRatios(all, all, pool_);
  response.pops = engine_->node_count();
  util::Table table(
      {"Network", "# PoPs", "Risk Reduction", "Distance Increase"});
  table.Add(request.label, response.pops,
            response.report.risk_reduction_ratio,
            response.report.distance_increase_ratio);
  response.body = table.ToString();
  return response;
}

EnsembleResponse Service::Ensemble(const EnsembleRequest& request) const {
  static obs::TraceScope scope(obs::MetricsRegistry::Global(), "api.ensemble");
  obs::TraceSpan span(scope);
  RequestCounter("ensemble").Add();

  sim::EnsembleOptions options;
  options.scenarios = request.scenarios;
  options.seed = request.seed;
  options.month = request.month;
  options.criticality_top = request.top;

  const sim::EnsembleEngine ensemble(*Routes(), Catalogs(), options);
  EnsembleResponse response;
  if (request.triage) {
    sim::TriageOptions triage;
    triage.pilot = request.pilot;
    triage.audit_stride = request.audit_stride;
    triage.base_rate = static_cast<double>(request.base_rate_ppm) / 1e6;
    triage.min_rate = std::min(triage.min_rate, triage.base_rate);
    const sim::TriagedEnsemble triaged(ensemble, triage);
    response.triaged = triaged.Run(pool_);
    response.report = response.triaged->estimate;
    response.body = request.json
                        ? response.triaged->ToJson()
                        : RenderTriagedText(*engine_, *response.triaged);
  } else {
    response.report = ensemble.Run(pool_);
    response.body = request.json
                        ? response.report.ToJson()
                        : RenderEnsembleText(*engine_, response.report);
  }
  return response;
}

RouteDiffResponse Service::StreamAdvisory(
    const StreamAdvisoryRequest& request) const {
  static obs::TraceScope scope(obs::MetricsRegistry::Global(), "api.stream");
  obs::TraceSpan span(scope);
  RequestCounter("stream").Add();

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::lock_guard<std::mutex> lock(lazy_->stream_mutex);
  if (request.reset) lazy_->stream.reset();
  if (lazy_->stream == nullptr) {
    forecast::StreamOptions options;
    options.top_moves = request.top;
    options.pool = pool_;
    lazy_->stream =
        std::make_unique<forecast::StreamingReroute>(Routes(), options);
    reg.GetCounter("api.stream.sessions").Add(1);
  } else {
    reg.GetCounter("api.stream.session_reuses").Add(1);
  }

  RouteDiffResponse response;
  util::ParseResult<forecast::Advisory> parsed =
      forecast::ParseAdvisoryResult(request.bulletin);
  if (!parsed.ok()) {
    // The live feed turned unreadable: revert to the static plane and
    // keep answering, tagged so the caller knows what it is getting.
    response.diff = lazy_->stream->FallbackToStatic();
    response.body = "advisory rejected: " + parsed.error().Render() + "\n" +
                    forecast::RenderRouteDiff(response.diff, *engine_,
                                              request.top);
    return response;
  }
  util::ParseResult<forecast::RouteDiff> diff =
      lazy_->stream->Ingest(parsed.value());
  if (!diff.ok()) throw InvalidArgument(diff.error().Render());
  response.diff = std::move(diff.value());
  response.body =
      forecast::RenderRouteDiff(response.diff, *engine_, request.top);
  return response;
}

ProvisionResponse Service::Provision(const ProvisionRequest& request) const {
  static obs::TraceScope scope(obs::MetricsRegistry::Global(), "api.provision");
  obs::TraceSpan span(scope);
  RequestCounter("provision").Add();

  if (request.links == 0) {
    throw InvalidArgument("provision needs links >= 1");
  }
  provision::AugmentationOptions options;
  options.links_to_add = request.links;
  options.candidates.max_candidates = engine_->node_count() > 100 ? 120 : 400;

  ProvisionResponse response;
  response.result = provision::GreedyAugment(*engine_, options, pool_);
  response.body = util::Format("aggregate bit-risk today: %.4g\n",
                               response.result.original_bit_risk_miles);
  for (std::size_t s = 0; s < response.result.steps.size(); ++s) {
    const auto& step = response.result.steps[s];
    response.body += util::Format(
        "%zu. %s <-> %s (%.0f mi) -> %.2f%% of original\n", s + 1,
        engine_->node_name(step.link.a).c_str(),
        engine_->node_name(step.link.b).c_str(), step.link.direct_miles,
        100 * step.fraction_of_original);
  }
  return response;
}

}  // namespace riskroute::api
