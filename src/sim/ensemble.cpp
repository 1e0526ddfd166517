#include "sim/ensemble.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/shortest_path.h"
#include "geo/distance.h"
#include "hazard/seasonal.h"
#include "obs/metrics.h"
#include "stats/summary.h"
#include "util/error.h"
#include "util/philox.h"

namespace riskroute::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Ensemble metrics, resolved once per process. Everything except the
/// wall-clock timings counts work that is a pure function of
/// (seed, scenario set), so the counters are Stability::kStable and land
/// in the export's bitwise-reproducible section.
struct EnsembleMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& scenarios = reg.GetCounter("sim.ensemble.scenarios");
  obs::Counter& empty_scenarios =
      reg.GetCounter("sim.ensemble.empty_scenarios");
  obs::Counter& failed_pops = reg.GetCounter("sim.ensemble.failed_pops");
  obs::Counter& severed_links = reg.GetCounter("sim.ensemble.severed_links");
  obs::Counter& endpoint_pairs =
      reg.GetCounter("sim.ensemble.endpoint_pairs");
  obs::Counter& disconnected_pairs =
      reg.GetCounter("sim.ensemble.disconnected_pairs");
  /// Overlays built (one per non-empty scenario) vs pair sweeps run
  /// through them: the overlay-reuse ratio of the batched path. Skipped
  /// sweeps are live pairs whose baseline path missed the failure set:
  /// no failed link's list in the pair table names them.
  obs::Counter& overlay_builds = reg.GetCounter("sim.ensemble.overlay_builds");
  obs::Counter& overlay_pair_sweeps =
      reg.GetCounter("sim.ensemble.overlay_pair_sweeps");
  obs::Counter& skipped_pair_sweeps =
      reg.GetCounter("sim.ensemble.skipped_pair_sweeps");
  obs::Histogram& draw_ns = reg.GetTiming("sim.ensemble.draw_ns");
  obs::Histogram& evaluate_ns = reg.GetTiming("sim.ensemble.evaluate_ns");
  obs::Histogram& run_ns = reg.GetTiming("sim.ensemble.run_ns");

  static EnsembleMetrics& Get() {
    static EnsembleMetrics metrics;
    return metrics;
  }
};

}  // namespace

EnsembleEngine::EnsembleEngine(const core::RouteEngine& engine,
                               const std::vector<hazard::Catalog>& catalogs,
                               const EnsembleOptions& options,
                               util::ThreadPool* pool)
    : EnsembleEngine(std::make_shared<const core::PairRoutes>(engine, pool),
                     catalogs, options) {}

EnsembleEngine::EnsembleEngine(std::shared_ptr<const core::PairRoutes> routes,
                               const std::vector<hazard::Catalog>& catalogs,
                               const EnsembleOptions& options)
    : routes_(std::move(routes)), catalogs_(&catalogs), options_(options) {
  const core::RouteEngine& engine = routes_->engine();
  if (routes_->metric() != core::RouteMetric::kBitRisk) {
    throw InvalidArgument("EnsembleEngine: baseline table must be kBitRisk");
  }
  if (catalogs.empty()) {
    throw InvalidArgument("EnsembleEngine: no catalogs");
  }
  if (options_.scenarios == 0) {
    throw InvalidArgument("EnsembleEngine: scenarios must be positive");
  }
  if (options_.month < 0 || options_.month > 12) {
    throw InvalidArgument("EnsembleEngine: month must be 0 (annual) or 1-12");
  }
  // Sampling-knob domains, written NaN-safely: a NaN fails every
  // ordered comparison, so `!(x >= lo) || !(x <= hi)` rejects it where
  // the naive `x < lo || x > hi` would let it slip through into the
  // coin-flip thresholds.
  if (!(options_.damage_radius_scale > 0.0) ||
      options_.damage_radius_scale > std::numeric_limits<double>::max()) {
    throw InvalidArgument(
        "EnsembleEngine: damage_radius_scale must be finite and > 0");
  }
  if (!(options_.center_jitter >= 0.0) ||
      options_.center_jitter > std::numeric_limits<double>::max()) {
    throw InvalidArgument(
        "EnsembleEngine: center_jitter must be finite and >= 0");
  }
  if (!(options_.fringe_factor >= 1.0) ||
      options_.fringe_factor > std::numeric_limits<double>::max()) {
    throw InvalidArgument(
        "EnsembleEngine: fringe_factor must be finite and >= 1");
  }
  if (!(options_.fringe_fail_scale >= 0.0) ||
      !(options_.fringe_fail_scale <= 1.0)) {
    throw InvalidArgument(
        "EnsembleEngine: fringe_fail_scale must be within [0, 1]");
  }
  if (!(options_.link_cut_prob >= 0.0) || !(options_.link_cut_prob <= 1.0)) {
    throw InvalidArgument("EnsembleEngine: link_cut_prob must be within [0, 1]");
  }
  if (options_.criticality_top == 0) {
    throw InvalidArgument("EnsembleEngine: criticality_top must be positive");
  }

  // Eligible event tables: with a month, only events in that month's
  // meteorological season (the seasonal model's slicing). Every eligible
  // event is equally likely, so catalog weights follow the historical
  // archive mix.
  for (std::size_t c = 0; c < catalogs.size(); ++c) {
    CatalogSlice slice;
    slice.catalog = c;
    const auto& events = catalogs[c].events();
    if (options_.month == 0) {
      slice.count = events.size();
    } else {
      if (events.size() > std::numeric_limits<std::uint32_t>::max()) {
        throw InvalidArgument("EnsembleEngine: catalog exceeds uint32 events");
      }
      for (std::size_t e = 0; e < events.size(); ++e) {
        if (hazard::SeasonOfMonth(events[e].month) ==
            hazard::SeasonOfMonth(options_.month)) {
          slice.events.push_back(static_cast<std::uint32_t>(e));
        }
      }
      slice.count = slice.events.size();
    }
    if (slice.count != 0) slices_.push_back(std::move(slice));
  }
  if (slices_.empty()) {
    throw InvalidArgument(
        "EnsembleEngine: season filter leaves no eligible events");
  }
  slice_prefix_.reserve(slices_.size());
  for (const CatalogSlice& slice : slices_) {
    slice_total_ += slice.count;
    slice_prefix_.push_back(slice_total_);
  }

  const std::size_t n = engine.node_count();
  for (std::size_t v = 0; v < n; ++v) {
    max_node_score_ = std::max(max_node_score_, engine.NodeScore(v));
  }

  // Footprint-scan geometry: unit vectors for every PoP and for three
  // fixed sample points along each frozen span. Draw compares their dot
  // products against the scenario center's vector, reserving haversines
  // for the few fringe-annulus nodes that need an exact falloff distance.
  node_units_.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    node_units_.push_back(geo::ToUnitVec(engine.location(v)));
  }
  link_span_units_.reserve(engine.link_count());
  for (std::size_t id = 0; id < engine.link_count(); ++id) {
    const geo::GeoPoint& a = engine.location(engine.link(id).a);
    const geo::GeoPoint& b = engine.location(engine.link(id).b);
    link_span_units_.push_back({geo::ToUnitVec(geo::Interpolate(a, b, 0.25)),
                                geo::ToUnitVec(geo::Interpolate(a, b, 0.5)),
                                geo::ToUnitVec(geo::Interpolate(a, b, 0.75))});
  }

  // The Eq 4 baseline over the connected pairs, summed in slot order.
  for (std::size_t slot = 0; slot < routes_->pair_count(); ++slot) {
    if (routes_->Weight(slot) == kInf) continue;
    baseline_ += routes_->Weight(slot);
    ++baseline_pairs_;
  }
}

std::vector<std::pair<std::size_t, std::uint64_t>>
EnsembleEngine::SliceLayout() const {
  std::vector<std::pair<std::size_t, std::uint64_t>> layout;
  layout.reserve(slices_.size());
  for (const CatalogSlice& slice : slices_) {
    layout.emplace_back(slice.catalog, slice.count);
  }
  return layout;
}

Scenario EnsembleEngine::Draw(std::uint64_t k) const {
  EnsembleMetrics& metrics = EnsembleMetrics::Get();
  obs::ScopedTimer timer(metrics.draw_ns);

  util::PhiloxRng rng(options_.seed, k);
  Scenario scenario;
  scenario.index = k;

  // Event pick: catalog by archive-mix weights, then uniform within the
  // eligible slice. The slice draw is one uniform event index in
  // [0, total) bucketed by exact integer prefix sums — no floating-point
  // CDF, so boundary draws land in the right slice at any archive scale.
  const std::uint64_t pick = rng.NextIndex(slice_total_);
  const std::size_t slice_id = static_cast<std::size_t>(
      std::upper_bound(slice_prefix_.begin(), slice_prefix_.end(), pick) -
      slice_prefix_.begin());
  const CatalogSlice& slice = slices_[slice_id];
  const hazard::Catalog& catalog = (*catalogs_)[slice.catalog];
  const std::size_t within = rng.NextIndex(slice.count);
  const hazard::Event& event =
      catalog.events()[options_.month == 0 ? within : slice.events[within]];
  scenario.type = catalog.type();
  scenario.event_month = event.month;
  scenario.radius_miles =
      hazard::DefaultDamageRadiusMiles(catalog.type()) *
      options_.damage_radius_scale;
  scenario.center = event.location;
  if (options_.center_jitter > 0.0) {
    const double bearing = rng.NextUniform(0.0, 360.0);
    const double distance =
        rng.NextUniform() * options_.center_jitter * scenario.radius_miles;
    scenario.center = geo::Destination(event.location, bearing, distance);
  }

  // Node failures: hard inside the radius; fragility coin flips in the
  // fringe, weighted by the engine's Eq 1 node score (the risk field) and
  // a linear falloff. Draws are consumed in ascending node order, so the
  // sequence is pinned by (seed, k) alone. The radius/fringe membership
  // tests are dot products against precomputed unit vectors (the cosine
  // of the central angle is monotone in arc length); only nodes inside
  // the fringe annulus recover an exact falloff distance.
  const core::RouteEngine& engine = routes_->engine();
  const std::size_t n = engine.node_count();
  const double radius = scenario.radius_miles;
  const double fringe = options_.fringe_factor * radius;
  const geo::UnitVec3 center = geo::ToUnitVec(scenario.center);
  const double cos_radius = geo::CosArcMiles(radius);
  const double cos_fringe = geo::CosArcMiles(fringe);
  for (std::size_t v = 0; v < n; ++v) {
    const double cos_d = geo::Dot(node_units_[v], center);
    if (cos_d >= cos_radius) {
      scenario.failed_nodes.push_back(v);
    } else if (cos_d >= cos_fringe && options_.fringe_fail_scale > 0.0 &&
               max_node_score_ > 0.0) {
      // Arc distance recovered from the dot product already in hand; the
      // annulus is far from the acos precision cliff at tiny angles.
      const double d = geo::kEarthRadiusMiles *
                       std::acos(std::clamp(cos_d, -1.0, 1.0));
      const double falloff = 1.0 - (d - radius) / (fringe - radius);
      const double p = options_.fringe_fail_scale *
                       (engine.NodeScore(v) / max_node_score_) * falloff;
      if (rng.NextUniform() < p) scenario.failed_nodes.push_back(v);
    }
  }

  // Long-haul cuts: a surviving link whose span crosses the footprint is
  // severed with link_cut_prob. Link ids ascend, so draw order is fixed.
  if (options_.link_cut_prob > 0.0) {
    // Reusable scratch: a fresh vector per draw is measurable at
    // million-draw scale. Cleared by un-marking (failure sets are tiny).
    thread_local std::vector<bool> dead;
    dead.resize(std::max(dead.size(), n));
    for (const std::size_t v : scenario.failed_nodes) dead[v] = true;
    for (std::uint32_t id = 0; id < engine.link_count(); ++id) {
      const core::Link& link = engine.link(id);
      if (dead[link.a] || dead[link.b]) continue;
      const std::array<geo::UnitVec3, 3>& span = link_span_units_[id];
      const double cos_span = std::max(
          {geo::Dot(span[0], center), geo::Dot(span[1], center),
           geo::Dot(span[2], center)});
      if (cos_span >= cos_radius && rng.NextUniform() < options_.link_cut_prob) {
        scenario.severed_edges.push_back(id);
      }
    }
    for (const std::size_t v : scenario.failed_nodes) dead[v] = false;
  }
  return scenario;
}

core::EdgeOverlay EnsembleEngine::OverlayFor(const Scenario& scenario) const {
  core::EdgeOverlay overlay;
  for (const std::size_t v : scenario.failed_nodes) overlay.DisableNode(v);
  for (const std::uint32_t id : scenario.severed_edges) {
    const core::Link& link = routes_->engine().link(id);
    overlay.RemoveEdge(link.a, link.b);
  }
  return overlay;
}

std::vector<std::uint32_t> EnsembleEngine::FailedLinks(
    const Scenario& scenario) const {
  const core::RouteEngine& engine = routes_->engine();
  std::vector<std::uint32_t> links(scenario.severed_edges);
  for (const std::size_t v : scenario.failed_nodes) {
    for (std::size_t e = engine.EdgeBegin(v); e < engine.EdgeEnd(v); ++e) {
      links.push_back(engine.EdgeLink(e));
    }
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

ScenarioOutcome EnsembleEngine::Evaluate(const Scenario& scenario) const {
  EnsembleMetrics& metrics = EnsembleMetrics::Get();
  obs::ScopedTimer timer(metrics.evaluate_ns);

  ScenarioOutcome outcome;
  outcome.failed_pops = static_cast<std::uint32_t>(scenario.failed_nodes.size());
  outcome.severed_links =
      static_cast<std::uint32_t>(scenario.severed_edges.size());

  metrics.scenarios.Add();
  metrics.failed_pops.Add(outcome.failed_pops);
  metrics.severed_links.Add(outcome.severed_links);

  outcome.failed_edge_ids = FailedLinks(scenario);

  // An empty failure set perturbs nothing: the overlay sweeps would
  // reproduce the baseline bitwise, so skip them.
  if (scenario.failed_nodes.empty() && scenario.severed_edges.empty()) {
    metrics.empty_scenarios.Add();
    return outcome;
  }

  const core::RouteEngine& engine = routes_->engine();
  std::vector<bool> dead(engine.node_count(), false);
  for (const std::size_t v : scenario.failed_nodes) dead[v] = true;
  const core::EdgeOverlay overlay = OverlayFor(scenario);
  metrics.overlay_builds.Add();

  // Only the pairs whose baseline path crosses a failed link can change:
  // any other pair keeps that path (failures only remove capacity), so
  // its distance is bitwise unchanged and its delta exactly 0.0. A pair
  // with a dead endpoint crosses that endpoint's incident links, so every
  // endpoint pair is among the crossing slots too. Ascending slot order
  // is the summation order of a sweep over every pair.
  thread_local core::DijkstraWorkspace workspace;
  std::uint64_t sweeps = 0;
  for (const std::uint32_t slot :
       routes_->SlotsCrossing(outcome.failed_edge_ids)) {
    const auto [i, j] = routes_->Endpoints(slot);
    if (dead[i] || dead[j]) {
      ++outcome.endpoint_pairs;
      continue;
    }
    engine.Run(workspace, i, engine.Alpha(i, j), j, &overlay);
    ++sweeps;
    if (workspace.Reached(j)) {
      outcome.delta_bit_risk_miles +=
          workspace.DistanceTo(j) - routes_->Weight(slot);
    } else {
      ++outcome.disconnected_pairs;
    }
  }
  metrics.overlay_pair_sweeps.Add(sweeps);
  metrics.skipped_pair_sweeps.Add(baseline_pairs_ - outcome.endpoint_pairs -
                                  sweeps);
  metrics.endpoint_pairs.Add(outcome.endpoint_pairs);
  metrics.disconnected_pairs.Add(outcome.disconnected_pairs);
  return outcome;
}

std::vector<ScenarioOutcome> EnsembleEngine::EvaluateScenarios(
    std::span<const std::uint64_t> ids, util::ThreadPool* pool) const {
  std::vector<ScenarioOutcome> outcomes(ids.size());
  util::ParallelFor(pool, ids.size(), [&](std::size_t s) {
    outcomes[s] = Evaluate(Draw(ids[s]));
  });
  return outcomes;
}

EnsembleReport EnsembleEngine::Run(util::ThreadPool* pool) const {
  EnsembleMetrics& metrics = EnsembleMetrics::Get();
  obs::ScopedTimer timer(metrics.run_ns);

  std::vector<std::uint64_t> ids(options_.scenarios);
  for (std::size_t k = 0; k < ids.size(); ++k) ids[k] = k;
  const std::vector<ScenarioOutcome> outcomes = EvaluateScenarios(ids, pool);

  // Fixed-order reduction over the scenario slots, unit-weighted: the
  // reducer's weighted arithmetic degenerates bitwise to the historical
  // unweighted Welford / sorted-quantile path when every weight is 1.
  EnsembleReducer reducer(*this, options_.criticality_top);
  for (const ScenarioOutcome& outcome : outcomes) reducer.Add(outcome, 1.0);
  return std::move(reducer).Finish(options_.seed, options_.scenarios);
}

EnsembleReducer::EnsembleReducer(const EnsembleEngine& engine,
                                 std::size_t criticality_top)
    : engine_(&engine), top_(criticality_top), min_(kInf), max_(-kInf) {
  const core::RouteEngine& route = engine.route_engine();
  links_.resize(route.link_count());
  for (std::size_t id = 0; id < links_.size(); ++id) {
    links_[id].a = route.link(id).a;
    links_[id].b = route.link(id).b;
    links_[id].miles = route.link(id).miles;
  }
}

void EnsembleReducer::Add(const ScenarioOutcome& outcome, double weight) {
  // Weighted Welford. The increments are written as (w * d) / W and
  // (w * d) * (x - mean) so that w == 1.0 multiplies exactly and the
  // unit-weight path reproduces the unweighted recurrence bitwise.
  const double x = outcome.delta_bit_risk_miles;
  weight_sum_ += weight;
  const double d = x - mean_;
  const double wd = weight * d;
  mean_ += wd / weight_sum_;
  m2_ += wd * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  sum_failed_pops_ += weight * static_cast<double>(outcome.failed_pops);
  sum_severed_links_ += weight * static_cast<double>(outcome.severed_links);
  sum_endpoint_pairs_ += weight * static_cast<double>(outcome.endpoint_pairs);
  sum_disconnected_pairs_ +=
      weight * static_cast<double>(outcome.disconnected_pairs);
  for (const std::uint32_t id : outcome.failed_edge_ids) {
    ++links_[id].failures;
    links_[id].delta_sum += weight * x;
  }
  deltas_.emplace_back(x, weight);
}

namespace {

/// Weighted order-statistic quantile over (value, weight) pairs sorted by
/// value: each pair stands for `weight` copies of its value, the virtual
/// sorted array has total length W, and the estimate interpolates the
/// values at virtual positions floor(p) and p + 1 for p = q * (W - 1) —
/// exactly the stats::Quantile formula when every weight is 1.
double WeightedQuantile(const std::vector<std::pair<double, double>>& sorted,
                        double total_weight, double q) {
  const auto value_at = [&](double p) {
    double cumulative = 0.0;
    for (const auto& [value, weight] : sorted) {
      cumulative += weight;
      if (cumulative > p) return value;
    }
    return sorted.back().first;
  };
  const double pos = q * (total_weight - 1.0);
  const double frac = pos - std::floor(pos);
  const double lo = value_at(std::floor(pos));
  const double hi = value_at(std::min(pos + 1.0, total_weight - 1.0));
  return lo * (1.0 - frac) + hi * frac;
}

}  // namespace

EnsembleReport EnsembleReducer::Finish(std::uint64_t seed,
                                       std::size_t scenarios) && {
  if (deltas_.empty()) {
    throw InvalidArgument("EnsembleReducer: no outcomes added");
  }
  EnsembleReport report;
  report.seed = seed;
  report.scenarios = scenarios;
  report.baseline_pairs = engine_->baseline_pairs();
  report.baseline_bit_risk_miles = engine_->baseline_bit_risk_miles();
  report.delta_mean = mean_;
  report.delta_variance = weight_sum_ > 1.0 ? m2_ / (weight_sum_ - 1.0) : 0.0;
  report.delta_min = min_;
  report.delta_max = max_;
  report.mean_failed_pops = sum_failed_pops_ / weight_sum_;
  report.mean_severed_links = sum_severed_links_ / weight_sum_;
  report.mean_endpoint_pairs = sum_endpoint_pairs_ / weight_sum_;
  report.mean_disconnected_pairs = sum_disconnected_pairs_ / weight_sum_;

  // Quantiles: sort by value (ascending ids fixed the input order, and
  // ties are value-identical, so the sort is deterministic), then read
  // the weighted order statistics. A linear cumulative scan per quantile
  // is O(n) — three scans, cheaper than it looks next to the sort.
  std::sort(deltas_.begin(), deltas_.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  report.delta_p5 = WeightedQuantile(deltas_, weight_sum_, 0.05);
  report.delta_p50 = WeightedQuantile(deltas_, weight_sum_, 0.50);
  report.delta_p95 = WeightedQuantile(deltas_, weight_sum_, 0.95);

  std::vector<std::size_t> order(links_.size());
  for (std::size_t id = 0; id < order.size(); ++id) order[id] = id;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (links_[x].delta_sum != links_[y].delta_sum) {
      return links_[x].delta_sum > links_[y].delta_sum;
    }
    return x < y;  // ascending link id breaks ties deterministically
  });
  for (const std::size_t id : order) {
    if (report.criticality.size() >= top_) break;
    if (links_[id].failures == 0) continue;
    report.criticality.push_back(links_[id]);
  }
  return report;
}

void AppendJsonDouble(std::string& out, double v) {
  // Shortest-double round trip: every finite double survives %.17g.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void AppendJsonSummary(std::string& out, const EnsembleReport& report) {
  const auto field = [&](const char* key, double v) {
    out += "  \"";
    out += key;
    out += "\": ";
    AppendJsonDouble(out, v);
    out += ",\n";
  };
  char buf[64];
  std::snprintf(buf, sizeof(buf), "  \"baseline_pairs\": %zu,\n",
                report.baseline_pairs);
  out += buf;
  field("baseline_bit_risk_miles", report.baseline_bit_risk_miles);
  out += "  \"delta\": {";
  const struct {
    const char* key;
    double value;
  } delta_fields[] = {
      {"mean", report.delta_mean}, {"variance", report.delta_variance},
      {"min", report.delta_min},   {"max", report.delta_max},
      {"p5", report.delta_p5},     {"p50", report.delta_p50},
      {"p95", report.delta_p95},
  };
  for (std::size_t i = 0; i < std::size(delta_fields); ++i) {
    out += i == 0 ? "\"" : ", \"";
    out += delta_fields[i].key;
    out += "\": ";
    AppendJsonDouble(out, delta_fields[i].value);
  }
  out += "},\n";
  field("mean_failed_pops", report.mean_failed_pops);
  field("mean_severed_links", report.mean_severed_links);
  field("mean_endpoint_pairs", report.mean_endpoint_pairs);
  field("mean_disconnected_pairs", report.mean_disconnected_pairs);
}

void AppendJsonCriticality(std::string& out, const EnsembleReport& report) {
  out += "  \"criticality\": [";
  char buf[128];
  for (std::size_t i = 0; i < report.criticality.size(); ++i) {
    const LinkCriticality& link = report.criticality[i];
    if (i != 0) out += ",";
    std::snprintf(buf, sizeof(buf),
                  "\n    {\"a\": %zu, \"b\": %zu, \"failures\": %" PRIu64
                  ", \"delta_sum\": ",
                  link.a, link.b, link.failures);
    out += buf;
    AppendJsonDouble(out, link.delta_sum);
    out += "}";
  }
  out += report.criticality.empty() ? "]\n}\n" : "\n  ]\n}\n";
}

std::string EnsembleReport::ToJson() const {
  std::string out;
  out.reserve(1024 + 128 * criticality.size());
  char buf[64];
  out += "{\n  \"schema\": \"riskroute.ensemble.v1\",\n";
  std::snprintf(buf, sizeof(buf), "  \"seed\": %" PRIu64 ",\n", seed);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"scenarios\": %zu,\n", scenarios);
  out += buf;
  AppendJsonSummary(out, *this);
  AppendJsonCriticality(out, *this);
  return out;
}

}  // namespace riskroute::sim
