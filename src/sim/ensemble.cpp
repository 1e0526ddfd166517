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
  /// sweeps are pairs whose baseline path missed the failure set, proven
  /// unchanged by the path-mask test alone.
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

/// Shortest-double round trip: every finite double survives %.17g.
void AppendDouble(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

EnsembleEngine::EnsembleEngine(const core::RouteEngine& engine,
                               const std::vector<hazard::Catalog>& catalogs,
                               const EnsembleOptions& options,
                               util::ThreadPool* pool)
    : EnsembleEngine(core::PairRoutes(engine, pool), catalogs, options) {}

EnsembleEngine::EnsembleEngine(const core::PairRoutes& routes,
                               const std::vector<hazard::Catalog>& catalogs,
                               const EnsembleOptions& options)
    : engine_(&routes.engine()), catalogs_(&catalogs), options_(options) {
  const core::RouteEngine& engine = *engine_;
  if (routes.metric() != core::RouteMetric::kBitRisk) {
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
    for (std::size_t e = 0; e < events.size(); ++e) {
      if (options_.month != 0 &&
          hazard::SeasonOfMonth(events[e].month) !=
              hazard::SeasonOfMonth(options_.month)) {
        continue;
      }
      slice.events.push_back(e);
    }
    if (!slice.events.empty()) slices_.push_back(std::move(slice));
  }
  if (slices_.empty()) {
    throw InvalidArgument(
        "EnsembleEngine: season filter leaves no eligible events");
  }
  slice_prefix_.reserve(slices_.size());
  for (const CatalogSlice& slice : slices_) {
    slice_total_ += static_cast<std::uint64_t>(slice.events.size());
    slice_prefix_.push_back(slice_total_);
  }

  // Undirected edge table, ascending (a, b), with the per-tail row index
  // that maps failed nodes to incident edge ids.
  const std::size_t n = engine.node_count();
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t e = engine.EdgeBegin(u); e < engine.EdgeEnd(u); ++e) {
      const std::size_t head = engine.EdgeHead(e);
      if (head > u) edges_.push_back({u, head, engine.EdgeMiles(e)});
    }
  }
  std::sort(edges_.begin(), edges_.end(),
            [](const UndirectedEdge& x, const UndirectedEdge& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  edge_row_.assign(n + 1, 0);
  for (const UndirectedEdge& edge : edges_) {
    ++edge_row_[edge.a + 1];
  }
  for (std::size_t u = 0; u < n; ++u) edge_row_[u + 1] += edge_row_[u];

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
  edge_span_units_.reserve(edges_.size());
  for (const UndirectedEdge& edge : edges_) {
    const geo::GeoPoint& a = engine.location(edge.a);
    const geo::GeoPoint& b = engine.location(edge.b);
    edge_span_units_.push_back({geo::ToUnitVec(geo::Interpolate(a, b, 0.25)),
                                geo::ToUnitVec(geo::Interpolate(a, b, 0.5)),
                                geo::ToUnitVec(geo::Interpolate(a, b, 0.75))});
  }

  // Baseline distances, path-edge masks and per-edge usage (how many
  // connected pairs route over each frozen edge: the static criticality
  // rank the triage surrogate reads per footprint), all from the shared
  // pair table's stored paths. A settled path is simple, so each of its
  // hops is a distinct edge. Serial, in slot order.
  const std::size_t pairs = routes.pair_count();
  baseline_dist_.resize(pairs);
  mask_words_ = (edges_.size() + 63) / 64;
  pair_path_mask_.assign(pairs * mask_words_, 0);
  baseline_edge_usage_.assign(edges_.size(), 0);
  for (std::size_t slot = 0; slot < pairs; ++slot) {
    baseline_dist_[slot] = routes.Weight(slot);
    if (baseline_dist_[slot] == kInf) continue;
    baseline_ += baseline_dist_[slot];
    ++baseline_pairs_;
    const std::span<const std::uint32_t> path = routes.PathNodes(slot);
    std::uint64_t* mask = &pair_path_mask_[slot * mask_words_];
    for (std::size_t h = 1; h < path.size(); ++h) {
      const std::uint32_t id = EdgeIdFor(path[h - 1], path[h]);
      mask[id / 64] |= std::uint64_t{1} << (id % 64);
      ++baseline_edge_usage_[id];
    }
  }
}

std::uint32_t EnsembleEngine::EdgeIdFor(std::size_t u, std::size_t v) const {
  if (u > v) std::swap(u, v);
  for (std::uint32_t id = edge_row_[u]; id < edge_row_[u + 1]; ++id) {
    if (edges_[id].b == v) return id;
  }
  throw InvalidArgument("EnsembleEngine: path hop is not a frozen edge");
}

std::vector<std::pair<std::size_t, std::uint64_t>>
EnsembleEngine::SliceLayout() const {
  std::vector<std::pair<std::size_t, std::uint64_t>> layout;
  layout.reserve(slices_.size());
  for (const CatalogSlice& slice : slices_) {
    layout.emplace_back(slice.catalog,
                        static_cast<std::uint64_t>(slice.events.size()));
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
  const hazard::Event& event =
      catalog.events()[slice.events[rng.NextIndex(slice.events.size())]];
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
  const std::size_t n = engine_->node_count();
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
                       (engine_->NodeScore(v) / max_node_score_) * falloff;
      if (rng.NextUniform() < p) scenario.failed_nodes.push_back(v);
    }
  }

  // Long-haul cuts: a surviving link whose span crosses the footprint is
  // severed with link_cut_prob. Edge ids ascend, so draw order is fixed.
  if (options_.link_cut_prob > 0.0) {
    // Reusable scratch: a fresh vector per draw is measurable at
    // million-draw scale. Cleared by un-marking (failure sets are tiny).
    thread_local std::vector<bool> dead;
    dead.resize(std::max(dead.size(), n));
    for (const std::size_t v : scenario.failed_nodes) dead[v] = true;
    for (std::uint32_t id = 0; id < edges_.size(); ++id) {
      const UndirectedEdge& edge = edges_[id];
      if (dead[edge.a] || dead[edge.b]) continue;
      const std::array<geo::UnitVec3, 3>& span = edge_span_units_[id];
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
    overlay.RemoveEdge(edges_[id].a, edges_[id].b);
  }
  return overlay;
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

  // The failed frozen links this scenario takes out of service: severed
  // spans plus every edge incident to a failed node.
  for (const std::size_t v : scenario.failed_nodes) {
    for (std::uint32_t id = edge_row_[v]; id < edge_row_[v + 1]; ++id) {
      outcome.failed_edge_ids.push_back(id);
    }
    // Edges where v is the higher endpoint live in other rows.
    for (std::uint32_t id = 0; id < edge_row_[v]; ++id) {
      if (edges_[id].b == v) outcome.failed_edge_ids.push_back(id);
    }
  }
  outcome.failed_edge_ids.insert(outcome.failed_edge_ids.end(),
                                 scenario.severed_edges.begin(),
                                 scenario.severed_edges.end());
  std::sort(outcome.failed_edge_ids.begin(), outcome.failed_edge_ids.end());
  outcome.failed_edge_ids.erase(std::unique(outcome.failed_edge_ids.begin(),
                                            outcome.failed_edge_ids.end()),
                                outcome.failed_edge_ids.end());

  // An empty failure set perturbs nothing: the overlay sweeps would
  // reproduce the baseline bitwise, so skip them.
  if (scenario.failed_nodes.empty() && scenario.severed_edges.empty()) {
    metrics.empty_scenarios.Add();
    return outcome;
  }

  const std::size_t n = engine_->node_count();
  std::vector<bool> dead(n, false);
  for (const std::size_t v : scenario.failed_nodes) dead[v] = true;
  const core::EdgeOverlay overlay = OverlayFor(scenario);
  metrics.overlay_builds.Add();

  // The scenario's failed edges as a bitmask: a pair whose baseline path
  // is disjoint from it keeps that path (failures only remove capacity),
  // so its distance is bitwise unchanged and the sweep can be skipped —
  // the delta contribution is exactly 0.0 either way.
  std::vector<std::uint64_t> failed_mask(mask_words_, 0);
  for (const std::uint32_t id : outcome.failed_edge_ids) {
    failed_mask[id / 64] |= std::uint64_t{1} << (id % 64);
  }

  thread_local core::DijkstraWorkspace workspace;
  std::uint64_t sweeps = 0;
  std::uint64_t skipped = 0;
  std::size_t slot = 0;  // pair slots run in (i, j) order
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++slot) {
      const double base = baseline_dist_[slot];
      if (base == kInf) continue;  // never connected; out of universe
      if (dead[i] || dead[j]) {
        ++outcome.endpoint_pairs;
        continue;
      }
      const std::uint64_t* mask = &pair_path_mask_[slot * mask_words_];
      bool touched = false;
      for (std::size_t w = 0; w < mask_words_; ++w) {
        if ((mask[w] & failed_mask[w]) != 0) {
          touched = true;
          break;
        }
      }
      if (!touched) {
        ++skipped;
        continue;
      }
      engine_->Run(workspace, i, engine_->Alpha(i, j), j, &overlay);
      ++sweeps;
      if (workspace.Reached(j)) {
        outcome.delta_bit_risk_miles += workspace.DistanceTo(j) - base;
      } else {
        ++outcome.disconnected_pairs;
      }
    }
  }
  metrics.overlay_pair_sweeps.Add(sweeps);
  metrics.skipped_pair_sweeps.Add(skipped);
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
  links_.resize(engine.edge_count());
  for (std::size_t id = 0; id < links_.size(); ++id) {
    links_[id].a = engine.edge(id).a;
    links_[id].b = engine.edge(id).b;
    links_[id].miles = engine.edge(id).miles;
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
    return x < y;  // ascending edge id breaks ties deterministically
  });
  for (const std::size_t id : order) {
    if (report.criticality.size() >= top_) break;
    if (links_[id].failures == 0) continue;
    report.criticality.push_back(links_[id]);
  }
  return report;
}

std::string EnsembleReport::ToJson() const {
  std::string out;
  out.reserve(1024 + 128 * criticality.size());
  char buf[64];
  const auto field = [&](const char* key, double v, const char* tail) {
    out += "  \"";
    out += key;
    out += "\": ";
    AppendDouble(out, v);
    out += tail;
  };
  out += "{\n  \"schema\": \"riskroute.ensemble.v1\",\n";
  std::snprintf(buf, sizeof(buf), "  \"seed\": %" PRIu64 ",\n", seed);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"scenarios\": %zu,\n", scenarios);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"baseline_pairs\": %zu,\n",
                baseline_pairs);
  out += buf;
  field("baseline_bit_risk_miles", baseline_bit_risk_miles, ",\n");
  out += "  \"delta\": {";
  const struct {
    const char* key;
    double value;
  } delta_fields[] = {
      {"mean", delta_mean}, {"variance", delta_variance},
      {"min", delta_min},   {"max", delta_max},
      {"p5", delta_p5},     {"p50", delta_p50},
      {"p95", delta_p95},
  };
  for (std::size_t i = 0; i < std::size(delta_fields); ++i) {
    out += i == 0 ? "\"" : ", \"";
    out += delta_fields[i].key;
    out += "\": ";
    AppendDouble(out, delta_fields[i].value);
  }
  out += "},\n";
  field("mean_failed_pops", mean_failed_pops, ",\n");
  field("mean_severed_links", mean_severed_links, ",\n");
  field("mean_endpoint_pairs", mean_endpoint_pairs, ",\n");
  field("mean_disconnected_pairs", mean_disconnected_pairs, ",\n");
  out += "  \"criticality\": [";
  for (std::size_t i = 0; i < criticality.size(); ++i) {
    const LinkCriticality& link = criticality[i];
    if (i != 0) out += ",";
    std::snprintf(buf, sizeof(buf),
                  "\n    {\"a\": %zu, \"b\": %zu, \"failures\": %" PRIu64
                  ", \"delta_sum\": ",
                  link.a, link.b, link.failures);
    out += buf;
    AppendDouble(out, link.delta_sum);
    out += "}";
  }
  out += criticality.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

}  // namespace riskroute::sim
