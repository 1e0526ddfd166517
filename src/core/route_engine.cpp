#include "core/route_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace riskroute::core {
namespace {

constexpr std::size_t kNoTarget = static_cast<std::size_t>(-1);

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Engine metrics, resolved once per process. Hot loops accumulate in
/// locals and flush with a handful of sharded adds per sweep, so the
/// per-relaxation cost is a register increment. All counters except
/// workspace_reuses record algorithmic work that is identical for any
/// thread count (sweeps are dispatched per source with fixed per-source
/// work), so they are Stability::kStable; workspace reuse depends on how
/// sources land on pooled threads.
struct EngineMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& freezes = reg.GetCounter("core.route_engine.freezes");
  obs::Histogram& freeze_ns = reg.GetTiming("core.route_engine.freeze_ns");
  obs::Counter& sweeps = reg.GetCounter("core.route_engine.sweeps");
  obs::Counter& overlay_sweeps =
      reg.GetCounter("core.route_engine.overlay_sweeps");
  obs::Counter& heap_pops = reg.GetCounter("core.route_engine.heap_pops");
  obs::Counter& relaxations = reg.GetCounter("core.route_engine.relaxations");
  obs::Histogram& relaxations_per_sweep = reg.GetHistogram(
      "core.route_engine.relaxations_per_sweep", SweepBounds());
  obs::Counter& envelope_sweeps =
      reg.GetCounter("core.route_engine.envelope_sweeps");
  obs::Counter& envelope_bisections =
      reg.GetCounter("core.route_engine.envelope_bisections");
  obs::Counter& envelope_rewalks =
      reg.GetCounter("core.route_engine.envelope_rewalks");
  obs::Counter& alt_sweeps = reg.GetCounter("core.route_engine.alt_sweeps");
  obs::Counter& landmark_preps =
      reg.GetCounter("core.route_engine.landmark_preps");
  obs::Counter& workspace_reuses = reg.GetCounter(
      "core.route_engine.workspace_reuses", obs::Stability::kVolatile);

  static const std::vector<std::uint64_t>& SweepBounds() {
    static const std::vector<std::uint64_t> bounds =
        obs::ExponentialBounds(16, 4, 12);
    return bounds;
  }
  static EngineMetrics& Get() {
    static EngineMetrics metrics;
    return metrics;
  }
};

/// Per-source accumulation for the ratio sweep.
struct SourceSums {
  double risk_ratio_sum = 0.0;
  double distance_ratio_sum = 0.0;
  std::size_t pairs = 0;
};

}  // namespace

RouteEngine::RouteEngine(const RiskGraph& graph, const RiskParams& params)
    : params_(params) {
  EngineMetrics& metrics = EngineMetrics::Get();
  metrics.freezes.Add(1);
  obs::ScopedTimer freeze_timer(metrics.freeze_ns);
  if (params.lambda_historical < 0.0 || params.lambda_forecast < 0.0) {
    throw InvalidArgument("RouteEngine: lambdas must be non-negative");
  }
  const std::size_t n = graph.node_count();
  const std::size_t edges = graph.directed_edge_count();
  if (n >= kNoTarget || n > std::numeric_limits<std::uint32_t>::max() ||
      edges > std::numeric_limits<std::uint32_t>::max()) {
    throw InvalidArgument("RouteEngine: graph too large for CSR freeze");
  }
  row_offsets_.resize(n + 1);
  impact_.resize(n);
  historical_.resize(n);
  forecast_.resize(n);
  node_score_.resize(n);
  location_.resize(n);
  name_.resize(n);
  col_.reserve(edges);
  miles_.reserve(edges);
  row_offsets_[0] = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const RiskNode& node = graph.node(u);
    impact_[u] = node.impact_fraction;
    historical_[u] = node.historical_risk;
    forecast_[u] = node.forecast_risk;
    location_[u] = node.location;
    name_[u] = node.name;
    // CSR rows preserve adjacency-list iteration order: the relaxation
    // order (and therefore every distance and parent chain) is bitwise
    // identical to a DijkstraWorkspace sweep over the RiskGraph.
    for (const RiskEdge& edge : graph.OutEdges(u)) {
      col_.push_back(static_cast<std::uint32_t>(edge.to));
      miles_.push_back(edge.miles);
    }
    row_offsets_[u + 1] = static_cast<std::uint32_t>(col_.size());
  }
  risk_.resize(col_.size());
  RebuildRiskPlane();
}

void RouteEngine::RebuildRiskPlane() {
  // Same expression as the Eq 1 per-edge weight, so the precomputed plane
  // is bitwise equal to recomputing the node term at every relaxation.
  for (std::size_t v = 0; v < node_score_.size(); ++v) {
    node_score_[v] = params_.lambda_historical * historical_[v] +
                     params_.lambda_forecast * forecast_[v];
  }
  for (std::size_t e = 0; e < risk_.size(); ++e) {
    risk_[e] = node_score_[col_[e]];
  }
}

double RouteEngine::ScoreWithForecast(std::size_t v,
                                      double forecast_risk) const {
  if (v >= node_count()) {
    throw InvalidArgument(
        util::Format("RouteEngine::ScoreWithForecast: node %zu out of range",
                     v));
  }
  // The RebuildRiskPlane expression verbatim: the overlay score planes the
  // streaming layer assembles from these values reproduce the additive
  // fold (and therefore the rounding) of a full refreeze.
  return params_.lambda_historical * historical_[v] +
         params_.lambda_forecast * forecast_risk;
}

void RouteEngine::SetForecastRisks(std::span<const double> risks) {
  if (risks.size() != forecast_.size()) {
    throw InvalidArgument(util::Format(
        "RouteEngine::SetForecastRisks: %zu risks for %zu nodes",
        risks.size(), forecast_.size()));
  }
  std::copy(risks.begin(), risks.end(), forecast_.begin());
  RebuildRiskPlane();
}

void RouteEngine::ClearForecastRisks() {
  std::fill(forecast_.begin(), forecast_.end(), 0.0);
  RebuildRiskPlane();
}

void RouteEngine::PrepareLandmarks(std::size_t count) {
  const std::size_t n = node_count();
  ClearLandmarks();
  if (count == 0 || n == 0) return;
  count = std::min(count, n);
  EngineMetrics::Get().landmark_preps.Add(1);
  landmark_ids_.reserve(count);
  landmark_miles_.assign(n * count, kInf);

  // Farthest-point traversal on the miles plane. `coverage[v]` is the
  // closest chosen landmark's distance to v; each round picks the least
  // covered node. +inf coverage (a component no landmark has reached yet)
  // outranks every finite distance, so multi-component graphs get a
  // landmark per component before any component gets its second. Ties
  // break to the lowest node id — the whole selection is deterministic.
  std::vector<double> coverage(n, kInf);
  DijkstraWorkspace ws;
  RunDistance(ws, 0);
  const auto least_covered = [&](const std::vector<double>& score) {
    std::size_t pick = 0;
    double best = -1.0;
    for (std::size_t v = 0; v < n; ++v) {
      const double s = score[v];
      if (s > best) {
        best = s;
        pick = v;
      }
    }
    return pick;
  };
  // Seed: the node farthest from node 0 (node 0 itself is an arbitrary
  // anchor, not a landmark).
  std::size_t pick = least_covered(ws.dist_);
  for (std::size_t l = 0; l < count; ++l) {
    landmark_ids_.push_back(static_cast<std::uint32_t>(pick));
    coverage[pick] = -1.0;  // never re-picked (every score is >= 0)
    RunDistance(ws, pick);
    for (std::size_t v = 0; v < n; ++v) {
      landmark_miles_[v * count + l] = ws.dist_[v];
      if (coverage[v] >= 0.0 && ws.dist_[v] < coverage[v]) {
        coverage[v] = ws.dist_[v];
      }
    }
    if (l + 1 < count) pick = least_covered(coverage);
  }
}

void RouteEngine::ClearLandmarks() {
  landmark_ids_.clear();
  landmark_miles_.clear();
}

bool RouteEngine::HasEdge(std::size_t a, std::size_t b) const {
  if (a >= node_count() || b >= node_count()) return false;
  for (std::size_t e = row_offsets_[a]; e < row_offsets_[a + 1]; ++e) {
    if (col_[e] == b) return true;
  }
  return false;
}

template <bool kRisk, bool kOverlay, bool kAlt>
void RouteEngine::RunImpl(DijkstraWorkspace& ws, std::size_t source,
                          double alpha, std::size_t target,
                          const EdgeOverlay* overlay) const {
  const std::size_t n = node_count();
  if (source >= n) {
    throw InvalidArgument(
        util::Format("RouteEngine: source %zu out of range", source));
  }
  if (target != kNoTarget && target >= n) {
    throw InvalidArgument(
        util::Format("RouteEngine: target %zu out of range", target));
  }
  EngineMetrics& metrics = EngineMetrics::Get();
  if (ws.dist_.size() == n) metrics.workspace_reuses.Add(1);
  ws.source_ = source;
  ws.dist_.assign(n, kInf);
  ws.parent_.assign(n, n);
  ws.settled_.assign(n, false);
  ws.dist_[source] = 0.0;

  // A* heuristic: the heap keys carry f = g + h while dist_ keeps the
  // plain g accumulation, so every settled distance is the same additive
  // fold a Dijkstra sweep produces — bitwise, not merely approximately.
  // h(v) = max over landmarks of |d(L,v) - d(L,target)| on the frozen
  // miles plane; landmarks seeing only one endpoint of (v, target) prove
  // the pair disconnected (h = +inf), landmarks seeing neither say
  // nothing (0).
  const std::size_t lm_count = kAlt ? landmark_ids_.size() : 0;
  const double* const lm_miles = landmark_miles_.data();
  const double* const lm_target =
      kAlt ? lm_miles + target * lm_count : nullptr;
  const auto bound_to_target = [&](std::size_t v) {
    double best = 0.0;
    const double* const lv = lm_miles + v * lm_count;
    for (std::size_t l = 0; l < lm_count; ++l) {
      const double dv = lv[l];
      const double dt = lm_target[l];
      double b;
      if (dv == kInf || dt == kInf) {
        b = dv == dt ? 0.0 : kInf;
      } else {
        b = std::abs(dv - dt);
      }
      if (b > best) best = b;
    }
    return best;
  };

  auto& heap = ws.heap_;
  heap.clear();
  heap.push_back(DijkstraWorkspace::QueueEntry{
      kAlt ? bound_to_target(source) : 0.0, source});
  const std::uint32_t* const col = col_.data();
  const std::uint32_t* const rows = row_offsets_.data();
  const double* const miles = miles_.data();
  const double* const risk = risk_.data();
  const double* score_override = nullptr;
  if constexpr (kOverlay) {
    score_override = overlay->node_score_override();
    if (score_override != nullptr &&
        overlay->node_score_override_size() != n) {
      throw InvalidArgument(util::Format(
          "RouteEngine: overlay node-score override covers %zu nodes, "
          "engine has %zu",
          overlay->node_score_override_size(), n));
    }
  }
  double* const dist = ws.dist_.data();
  std::size_t* const parent = ws.parent_.data();
  // Counted in registers here, flushed to sharded atomics once per sweep
  // — the hot loop itself carries no atomic traffic.
  std::uint64_t pops = 0;
  std::uint64_t relaxations = 0;
  while (!heap.empty()) {
    const DijkstraWorkspace::QueueEntry top = heap.front();
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    heap.pop_back();
    if (ws.settled_[top.node]) continue;
    ws.settled_[top.node] = true;
    ++pops;
    if (top.node == target) break;
    const double base = dist[top.node];
    const std::uint32_t row_end = rows[top.node + 1];
    for (std::uint32_t e = rows[top.node]; e < row_end; ++e) {
      const std::size_t to = col[e];
      if (ws.settled_[to]) continue;
      if constexpr (kOverlay) {
        if (overlay->Masks(top.node, to)) continue;
      }
      ++relaxations;
      double weight = miles[e];
      if constexpr (kRisk) {
        if constexpr (kOverlay) {
          weight +=
              alpha * (score_override != nullptr ? score_override[to]
                                                 : risk[e]);
        } else {
          weight += alpha * risk[e];
        }
      }
      const double candidate = base + weight;
      if (candidate < dist[to]) {
        dist[to] = candidate;
        parent[to] = top.node;
        heap.push_back(DijkstraWorkspace::QueueEntry{
            kAlt ? candidate + bound_to_target(to) : candidate, to});
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
    if constexpr (kOverlay) {
      // Overlay additions relax after the frozen row — the position
      // RiskGraph::AddEdge would have appended them to.
      for (const OverlayEdge& oe : overlay->AddedFrom(top.node)) {
        const std::size_t to = oe.to;
        // Masks() (not just IsDisabled) so a directed removal also hides
        // an overlay-added edge — Yen's spur masking removes edges of
        // accepted paths that may themselves be overlay additions.
        if (ws.settled_[to] || overlay->Masks(top.node, to)) continue;
        ++relaxations;
        double weight = oe.miles;
        if constexpr (kRisk) {
          weight += alpha * (score_override != nullptr ? score_override[to]
                                                       : node_score_[to]);
        }
        const double candidate = base + weight;
        if (candidate < dist[to]) {
          dist[to] = candidate;
          parent[to] = top.node;
          heap.push_back(DijkstraWorkspace::QueueEntry{
              kAlt ? candidate + bound_to_target(to) : candidate, to});
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
      }
    }
  }
  metrics.sweeps.Add(1);
  if constexpr (kOverlay) metrics.overlay_sweeps.Add(1);
  if constexpr (kAlt) metrics.alt_sweeps.Add(1);
  metrics.heap_pops.Add(pops);
  metrics.relaxations.Add(relaxations);
  metrics.relaxations_per_sweep.Record(relaxations);
}

void RouteEngine::Run(DijkstraWorkspace& ws, std::size_t source, double alpha,
                      std::optional<std::size_t> target,
                      const EdgeOverlay* overlay) const {
  const std::size_t tgt = target.value_or(kNoTarget);
  const bool alt = tgt != kNoTarget && AltUsable(overlay);
  if (overlay != nullptr && !overlay->empty()) {
    if (alt) {
      RunImpl<true, true, true>(ws, source, alpha, tgt, overlay);
    } else {
      RunImpl<true, true, false>(ws, source, alpha, tgt, overlay);
    }
  } else if (alt) {
    RunImpl<true, false, true>(ws, source, alpha, tgt, nullptr);
  } else {
    RunImpl<true, false, false>(ws, source, alpha, tgt, nullptr);
  }
}

void RouteEngine::RunDistance(DijkstraWorkspace& ws, std::size_t source,
                              std::optional<std::size_t> target,
                              const EdgeOverlay* overlay) const {
  const std::size_t tgt = target.value_or(kNoTarget);
  const bool alt = tgt != kNoTarget && AltUsable(overlay);
  if (overlay != nullptr && !overlay->empty()) {
    if (alt) {
      RunImpl<false, true, true>(ws, source, 0.0, tgt, overlay);
    } else {
      RunImpl<false, true, false>(ws, source, 0.0, tgt, overlay);
    }
  } else if (alt) {
    RunImpl<false, false, true>(ws, source, 0.0, tgt, nullptr);
  } else {
    RunImpl<false, false, false>(ws, source, 0.0, tgt, nullptr);
  }
}

std::optional<Path> RouteEngine::FindPath(std::size_t source,
                                          std::size_t target, double alpha,
                                          const EdgeOverlay* overlay) const {
  thread_local DijkstraWorkspace ws;
  Run(ws, source, alpha, target, overlay);
  if (!ws.Reached(target)) return std::nullopt;
  return ws.PathTo(target);
}

double RouteEngine::PathWeight(const Path& path, double alpha,
                               const EdgeOverlay* overlay) const {
  if (path.empty()) throw InvalidArgument("RouteEngine::PathWeight: empty path");
  const double* const score_override =
      overlay != nullptr ? overlay->node_score_override() : nullptr;
  if (score_override != nullptr &&
      overlay->node_score_override_size() != node_count()) {
    throw InvalidArgument(util::Format(
        "RouteEngine::PathWeight: overlay node-score override covers %zu "
        "nodes, engine has %zu",
        overlay->node_score_override_size(), node_count()));
  }
  double total = 0.0;
  for (std::size_t k = 1; k < path.size(); ++k) {
    const std::size_t u = path[k - 1];
    const std::size_t v = path[k];
    bool found = false;
    double hop_miles = 0.0;
    const bool removed = overlay != nullptr && overlay->IsRemoved(u, v);
    if (!removed) {
      for (std::size_t e = row_offsets_[u]; e < row_offsets_[u + 1]; ++e) {
        if (col_[e] == v) {
          hop_miles = miles_[e];
          found = true;
          break;
        }
      }
      if (!found && overlay != nullptr) {
        for (const OverlayEdge& oe : overlay->AddedFrom(u)) {
          if (oe.to == v) {
            hop_miles = oe.miles;
            found = true;
            break;
          }
        }
      }
    }
    if (!found) {
      throw InvalidArgument(
          util::Format("RouteEngine: missing edge (%zu, %zu)", u, v));
    }
    total += hop_miles + alpha * (score_override != nullptr
                                      ? score_override[v]
                                      : node_score_[v]);
  }
  return total;
}

double RouteEngine::PathBitRiskMiles(const Path& path,
                                     const EdgeOverlay* overlay) const {
  if (path.empty()) {
    throw InvalidArgument("RouteEngine::PathBitRiskMiles: empty path");
  }
  return PathWeight(path, Alpha(path.front(), path.back()), overlay);
}

double RouteEngine::PathMiles(const Path& path,
                              const EdgeOverlay* overlay) const {
  // alpha = 0 adds +0.0 per hop, which is bitwise neutral for the
  // non-negative mileages the graph validates.
  if (path.empty()) throw InvalidArgument("RouteEngine::PathMiles: empty path");
  return PathWeight(path, 0.0, overlay);
}

PairMatrix RouteEngine::ManyToMany(std::span<const std::size_t> sources,
                                   std::span<const std::size_t> targets,
                                   RouteMetric metric, util::ThreadPool* pool,
                                   const EdgeOverlay* overlay) const {
  PairMatrix m;
  m.rows = sources.size();
  m.cols = targets.size();
  m.dist.assign(m.rows * m.cols, kInf);
  // With landmarks prepared and a sparse target set, per-pair A* beats
  // one full sweep per source: each goal-directed run settles a corridor
  // instead of the whole graph. The distances are bitwise the same either
  // way (both are the min additive fold over paths), so the cutover is a
  // pure performance policy.
  const bool targeted_distance =
      metric == RouteMetric::kDistance && AltUsable(overlay) &&
      targets.size() * 8 <= node_count();
  const auto body = [&](std::size_t s) {
    thread_local DijkstraWorkspace ws;
    double* const row = m.dist.data() + s * m.cols;
    const std::size_t src = sources[s];
    if (metric == RouteMetric::kDistance && !targeted_distance) {
      RunDistance(ws, src, std::nullopt, overlay);
      for (std::size_t t = 0; t < m.cols; ++t) {
        row[t] = ws.DistanceTo(targets[t]);
      }
      return;
    }
    if (targeted_distance) {
      for (std::size_t t = 0; t < m.cols; ++t) {
        const std::size_t tgt = targets[t];
        if (tgt == src) {
          row[t] = 0.0;
          continue;
        }
        RunDistance(ws, src, tgt, overlay);
        row[t] = ws.DistanceTo(tgt);
      }
      return;
    }
    for (std::size_t t = 0; t < m.cols; ++t) {
      const std::size_t tgt = targets[t];
      if (tgt == src) {
        row[t] = 0.0;
        continue;
      }
      Run(ws, src, Alpha(src, tgt), tgt, overlay);
      row[t] = ws.DistanceTo(tgt);
    }
  };
  // Rows are disjoint output slices: results are bitwise identical for
  // any thread count.
  util::ParallelFor(pool, m.rows, body);
  return m;
}

PairMatrix RouteEngine::AllPairs(RouteMetric metric, util::ThreadPool* pool,
                                 const EdgeOverlay* overlay) const {
  std::vector<std::size_t> everyone(node_count());
  for (std::size_t i = 0; i < everyone.size(); ++i) everyone[i] = i;
  return ManyToMany(everyone, everyone, metric, pool, overlay);
}

RatioReport RouteEngine::ComputeRatios(std::span<const std::size_t> sources,
                                       std::span<const std::size_t> targets,
                                       util::ThreadPool* pool,
                                       const EdgeOverlay* overlay) const {
  std::vector<SourceSums> per_source(sources.size());
  const auto body = [&](std::size_t s) {
    thread_local DijkstraWorkspace distance_ws;
    thread_local DijkstraWorkspace risk_ws;
    SourceSums sums;
    const std::size_t source = sources[s];
    // One pure-distance sweep covers every target's shortest path.
    RunDistance(distance_ws, source, std::nullopt, overlay);
    for (const std::size_t target : targets) {
      if (target == source || !distance_ws.Reached(target)) continue;
      const Path shortest = distance_ws.PathTo(target);
      const double shortest_miles = distance_ws.DistanceTo(target);
      const double shortest_bit_risk = PathBitRiskMiles(shortest, overlay);
      if (shortest_bit_risk <= 0.0 || shortest_miles <= 0.0) continue;

      Run(risk_ws, source, Alpha(source, target), target, overlay);
      if (!risk_ws.Reached(target)) continue;
      const double rr_bit_risk = risk_ws.DistanceTo(target);
      const double rr_miles = PathMiles(risk_ws.PathTo(target), overlay);

      sums.risk_ratio_sum += rr_bit_risk / shortest_bit_risk;
      sums.distance_ratio_sum += rr_miles / shortest_miles;
      sums.pairs += 1;
    }
    per_source[s] = sums;
  };
  util::ParallelFor(pool, sources.size(), body);

  RatioReport report;
  double risk_sum = 0.0;
  double distance_sum = 0.0;
  for (const SourceSums& sums : per_source) {
    risk_sum += sums.risk_ratio_sum;
    distance_sum += sums.distance_ratio_sum;
    report.pair_count += sums.pairs;
  }
  if (report.pair_count > 0) {
    const auto n = static_cast<double>(report.pair_count);
    report.risk_reduction_ratio = 1.0 - risk_sum / n;
    report.distance_increase_ratio = distance_sum / n - 1.0;
  }
  return report;
}

double RouteEngine::ParametricRowSum(std::size_t i) const {
  const std::size_t n = node_count();

  // Sweep pool: one workspace per distinct alpha swept this row, reused
  // across rows. unique_ptr keeps the pointers stable as the pool grows
  // mid-recursion.
  thread_local std::vector<std::unique_ptr<DijkstraWorkspace>> sweep_pool;
  std::size_t sweeps_used = 0;
  const auto sweep_at = [&](double alpha) {
    if (sweeps_used == sweep_pool.size()) {
      sweep_pool.push_back(std::make_unique<DijkstraWorkspace>());
    }
    DijkstraWorkspace* s = sweep_pool[sweeps_used++].get();
    Run(*s, i, alpha);
    return s;
  };

  // Per-target results, summed in ascending-j order at the end so the
  // accumulation order matches the per-pair loop exactly.
  thread_local std::vector<double> dist_row;
  dist_row.assign(n, kInf);

  // The fold of hop weights along the sweep's argmin path, evaluated at
  // this pair's alpha — the same source-to-target accumulation the
  // targeted Dijkstra performs (dist[v] = dist[u] + weight at each hop).
  std::uint64_t rewalks = 0;
  std::uint64_t bisections = 0;

  thread_local std::vector<std::size_t> chain;
  const auto rewalk = [&](std::size_t j, double alpha,
                          const DijkstraWorkspace& tree) {
    ++rewalks;
    chain.clear();
    for (std::size_t v = j; v != i; v = tree.parent_[v]) chain.push_back(v);
    double value = 0.0;
    std::size_t u = i;
    for (std::size_t k = chain.size(); k-- > 0;) {
      const std::size_t v = chain[k];
      std::size_t e = row_offsets_[u];
      while (col_[e] != v) ++e;  // edge exists: the sweep relaxed it
      double weight = miles_[e];
      weight += alpha * risk_[e];
      value = value + weight;
      u = v;
    }
    return value;
  };

  // Resolves every target in `targets` whose alpha lies in
  // [lo_alpha, hi_alpha]. A target whose alpha equals an endpoint reads
  // the sweep's distance directly (a full sweep is bitwise equal to the
  // targeted run; early exit only truncates work past the settle). A
  // target whose argmin parent chain is identical at both endpoints is
  // optimal on that same path throughout the interval — two lines
  // ordered at both ends of an interval stay ordered inside it — so an
  // O(path) rewalk at its own alpha yields the exact Dijkstra fold.
  // Remaining targets bisect at the median unresolved alpha; the median
  // target itself resolves as an endpoint of the child interval, so the
  // recursion spends at most one extra sweep per unresolved target and
  // in practice one per argmin-tree switch.
  const auto resolve = [&](auto&& self, const DijkstraWorkspace* lo,
                           double lo_alpha, const DijkstraWorkspace* hi,
                           double hi_alpha,
                           const std::vector<std::size_t>& targets) -> void {
    std::vector<std::size_t> unresolved;
    for (const std::size_t j : targets) {
      // Reachability does not depend on alpha (weights stay finite).
      if (!lo->Reached(j)) continue;
      const double alpha = Alpha(i, j);
      if (alpha == lo_alpha) {
        dist_row[j] = lo->DistanceTo(j);
        continue;
      }
      if (alpha == hi_alpha) {
        dist_row[j] = hi->DistanceTo(j);
        continue;
      }
      bool same_path = true;
      for (std::size_t v = j; v != i;) {
        const std::size_t p = lo->parent_[v];
        if (p != hi->parent_[v]) {
          same_path = false;
          break;
        }
        v = p;
      }
      if (same_path) {
        dist_row[j] = rewalk(j, alpha, *lo);
      } else {
        unresolved.push_back(j);
      }
    }
    if (unresolved.empty()) return;
    ++bisections;
    const double mid_alpha = Alpha(i, unresolved[unresolved.size() / 2]);
    const DijkstraWorkspace* mid = sweep_at(mid_alpha);
    std::vector<std::size_t> left;
    std::vector<std::size_t> right;
    for (const std::size_t j : unresolved) {
      (Alpha(i, j) <= mid_alpha ? left : right).push_back(j);
    }
    if (!left.empty()) self(self, lo, lo_alpha, mid, mid_alpha, left);
    if (!right.empty()) self(self, mid, mid_alpha, hi, hi_alpha, right);
  };

  // Row targets sorted by alpha (alpha_ij = c_i + c_j is monotone in
  // c_j), so the interval endpoints are the extreme-impact targets.
  std::vector<std::size_t> targets;
  targets.reserve(n - i - 1);
  for (std::size_t j = i + 1; j < n; ++j) targets.push_back(j);
  std::sort(targets.begin(), targets.end(),
            [&](std::size_t a, std::size_t b) {
              return impact_[a] != impact_[b] ? impact_[a] < impact_[b]
                                              : a < b;
            });
  const double alpha_lo = Alpha(i, targets.front());
  const double alpha_hi = Alpha(i, targets.back());
  const DijkstraWorkspace* lo = sweep_at(alpha_lo);
  const DijkstraWorkspace* hi =
      alpha_lo == alpha_hi ? lo : sweep_at(alpha_hi);
  resolve(resolve, lo, alpha_lo, hi, alpha_hi, targets);

  EngineMetrics& metrics = EngineMetrics::Get();
  metrics.envelope_sweeps.Add(sweeps_used);
  metrics.envelope_bisections.Add(bisections);
  metrics.envelope_rewalks.Add(rewalks);

  double sum = 0.0;
  for (std::size_t j = i + 1; j < n; ++j) {
    if (dist_row[j] != kInf) sum += dist_row[j];
  }
  return sum;
}

double RouteEngine::AggregateMinBitRisk(util::ThreadPool* pool,
                                        const EdgeOverlay* overlay) const {
  const std::size_t n = node_count();
  std::vector<double> per_source(n, 0.0);
  const bool use_overlay = overlay != nullptr && !overlay->empty();
  const auto body = [&](std::size_t i) {
    thread_local DijkstraWorkspace ws;
    // The parametric shortcut amortizes its full sweeps over the row's
    // targets; short rows (and overlay sweeps, whose parent chains may
    // thread overlay edges) keep the per-pair loop.
    if (!use_overlay && n - i > 4) {
      per_source[i] = ParametricRowSum(i);
      return;
    }
    double sum = 0.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      Run(ws, i, Alpha(i, j), j, overlay);
      if (ws.Reached(j)) sum += ws.DistanceTo(j);
    }
    per_source[i] = sum;
  };
  util::ParallelFor(pool, n, body);
  double total = 0.0;
  for (const double v : per_source) total += v;
  return total;
}

double RouteEngine::SumMinBitRisk(std::span<const std::size_t> sources,
                                  std::span<const std::size_t> targets,
                                  util::ThreadPool* pool,
                                  const EdgeOverlay* overlay) const {
  std::vector<double> per_source(sources.size(), 0.0);
  const auto body = [&](std::size_t s) {
    thread_local DijkstraWorkspace ws;
    const std::size_t i = sources[s];
    double sum = 0.0;
    for (const std::size_t j : targets) {
      if (j == i) continue;
      Run(ws, i, Alpha(i, j), j, overlay);
      if (ws.Reached(j)) sum += ws.DistanceTo(j);
    }
    per_source[s] = sum;
  };
  util::ParallelFor(pool, sources.size(), body);
  double total = 0.0;
  for (const double v : per_source) total += v;
  return total;
}

}  // namespace riskroute::core
