#include "forecast/streaming.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "core/shortest_path.h"
#include "forecast/parser.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace riskroute::forecast {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Slack added to the kd-tree footprint query so conversion rounding in
// the chord-distance index can never exclude a node whose exact
// great-circle distance is within the wind radius. RiskAt is then
// evaluated exactly per candidate, so the slack only costs a few extra
// zero-risk evaluations.
constexpr double kFootprintSlackMiles = 0.5;

/// Streaming metrics. Everything here is a pure function of the engine
/// and the advisory sequence (per-pair work is fixed and reductions are
/// serial), so all counters are Stability::kStable.
struct StreamMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& sessions = reg.GetCounter("stream.sessions");
  obs::Counter& advisories = reg.GetCounter("stream.advisories");
  obs::Counter& rejects_sequence =
      reg.GetCounter("stream.rejects.sequence");
  obs::Counter& fallbacks = reg.GetCounter("stream.fallbacks");
  obs::Counter& pairs_recomputed =
      reg.GetCounter("stream.pairs.recomputed");
  obs::Counter& cache_hits = reg.GetCounter("stream.cache.hits");
  obs::Counter& pairs_moved = reg.GetCounter("stream.pairs.moved");
  obs::Counter& scope_pops = reg.GetCounter("stream.scope.pops");

  static StreamMetrics& Get() {
    static StreamMetrics metrics;
    return metrics;
  }
};

std::vector<geo::GeoPoint> EngineLocations(const core::RouteEngine& engine) {
  std::vector<geo::GeoPoint> points;
  points.reserve(engine.node_count());
  for (std::size_t v = 0; v < engine.node_count(); ++v) {
    points.push_back(engine.location(v));
  }
  return points;
}

std::string PopLabel(const core::RouteEngine& engine, std::size_t v) {
  const std::string& name = engine.node_name(v);
  if (!name.empty()) return name;
  return util::Format("pop-%zu", v);
}

/// FNV-1a 64 over node ids widened to 8 little-endian bytes, so a
/// table path (uint32 ids) digests exactly like the same core::Path.
template <typename Nodes>
std::uint64_t NodesDigest(const Nodes& path) {
  if (path.empty()) return 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto node : path) {
    std::uint64_t id = node;
    for (int byte = 0; byte < 8; ++byte) {
      h ^= id & 0xffULL;
      h *= 0x100000001b3ULL;
      id >>= 8;
    }
  }
  return h;
}

/// One pair's answer: bit-risk miles (+inf when unreachable) and path.
struct Answer {
  double bit_risk_miles = 0.0;
  std::span<const std::uint32_t> path;

  [[nodiscard]] bool operator!=(const Answer& other) const {
    return bit_risk_miles != other.bit_risk_miles ||
           !std::ranges::equal(path, other.path);
  }
};

}  // namespace

std::uint64_t PathDigest(const core::Path& path) { return NodesDigest(path); }

RouteDiff Compose(const RouteDiff& first, const RouteDiff& second) {
  // Keyed map keeps the result in ascending (src, dst) order.
  std::map<std::pair<std::uint32_t, std::uint32_t>, PairMove> merged;
  for (const PairMove& m : first.moves) {
    merged.emplace(std::make_pair(m.src, m.dst), m);
  }
  for (const PairMove& m : second.moves) {
    auto [it, inserted] = merged.emplace(std::make_pair(m.src, m.dst), m);
    if (!inserted) {
      it->second.after_bit_risk_miles = m.after_bit_risk_miles;
      it->second.after_digest = m.after_digest;
    }
  }

  RouteDiff out;
  out.advisory_number = second.advisory_number;
  out.advisory_time = second.advisory_time;
  out.source = second.source;
  out.pops_in_scope = second.pops_in_scope;
  out.pairs_tracked = second.pairs_tracked;
  out.pairs_recomputed = first.pairs_recomputed + second.pairs_recomputed;
  for (auto& [key, move] : merged) {
    if (move.before_bit_risk_miles == move.after_bit_risk_miles &&
        move.before_digest == move.after_digest) {
      continue;  // endpoints agree: the pair round-tripped
    }
    out.total_abs_delta += std::abs(move.Delta());
    out.moves.push_back(move);
  }
  out.pairs_moved = out.moves.size();
  return out;
}

std::string RenderRouteDiff(const RouteDiff& diff,
                            const core::RouteEngine& engine,
                            std::size_t top_moves) {
  const std::string number = diff.advisory_number > 0
                                 ? util::Format("%d", diff.advisory_number)
                                 : std::string("-");
  const std::string time =
      diff.advisory_time.empty() ? std::string("-") : diff.advisory_time;
  std::string out = util::Format(
      "advisory %s | %s | %s | in scope %zu | recomputed %zu/%zu | "
      "moved %zu | delta-sum %.6f\n",
      number.c_str(), time.c_str(), diff.source.c_str(), diff.pops_in_scope,
      diff.pairs_recomputed, diff.pairs_tracked, diff.pairs_moved,
      diff.total_abs_delta);

  // Top moves by |delta|; exact-double ties break to the ascending pair,
  // so the rendering is deterministic.
  std::vector<PairMove> ranked = diff.moves;
  std::sort(ranked.begin(), ranked.end(),
            [](const PairMove& a, const PairMove& b) {
              const double da = std::abs(a.Delta());
              const double db = std::abs(b.Delta());
              if (da != db) return da > db;
              return std::pair{a.src, a.dst} < std::pair{b.src, b.dst};
            });
  if (ranked.size() > top_moves) ranked.resize(top_moves);
  for (const PairMove& m : ranked) {
    out += util::Format(
        "  %s <-> %s : %.6f -> %.6f bit-risk-miles (%+.6f)\n",
        PopLabel(engine, m.src).c_str(), PopLabel(engine, m.dst).c_str(),
        m.before_bit_risk_miles, m.after_bit_risk_miles, m.Delta());
  }
  return out;
}

StreamingReroute::StreamingReroute(const core::RouteEngine& engine,
                                   StreamOptions options)
    : StreamingReroute(std::make_shared<const core::PairRoutes>(engine,
                                                                options.pool),
                       options) {}

StreamingReroute::StreamingReroute(
    std::shared_ptr<const core::PairRoutes> routes, StreamOptions options)
    : routes_(std::move(routes)),
      options_(options),
      index_(EngineLocations(routes_->engine())) {
  if (routes_->metric() != core::RouteMetric::kBitRisk) {
    throw InvalidArgument("StreamingReroute: baseline table must be kBitRisk");
  }
  const core::RouteEngine& engine = routes_->engine();
  const std::size_t n = engine.node_count();
  for (std::size_t v = 0; v < n; ++v) {
    if (engine.forecast_risk(v) != 0.0) {
      throw InvalidArgument(
          "StreamingReroute: engine must be a baseline freeze with a "
          "zero forecast plane (the session owns the forecast dimension)");
    }
  }
  // The table's sweeps are the same flavor (goal-directed iff landmarks
  // are prepared) every later recompute and every from-scratch rebuild
  // uses, so skipped pairs replay bitwise the answer a rebuild settles.
  if (obs::Enabled()) StreamMetrics::Get().sessions.Add(1);
}

util::ParseResult<RouteDiff> StreamingReroute::IngestText(
    std::string_view bulletin) {
  util::ParseResult<Advisory> parsed = ParseAdvisoryResult(bulletin);
  if (!parsed.ok()) return parsed.error();
  return Ingest(parsed.value());
}

util::ParseResult<RouteDiff> StreamingReroute::Ingest(
    const Advisory& advisory) {
  if (advisory.number <= last_number_) {
    if (obs::Enabled()) StreamMetrics::Get().rejects_sequence.Add(1);
    const char* const why =
        advisory.number == last_number_ ? "duplicate" : "out-of-order";
    return util::ParseResult<RouteDiff>::Failure(
        util::ParseErrorKind::kBadValue,
        util::Format("%s advisory number %d (session already at %d)", why,
                     advisory.number, last_number_));
  }

  const core::RouteEngine& engine = routes_->engine();
  const std::size_t n = engine.node_count();
  const double radius = std::max(advisory.tropical_wind_radius_miles,
                                 advisory.hurricane_wind_radius_miles);
  std::vector<double> forecast(n, 0.0);
  std::vector<std::size_t> scope;
  if (radius > 0.0) {
    const ForecastRiskField field(advisory, options_.risk);
    std::vector<spatial::Neighbor> nearby =
        index_.WithinRadius(advisory.center, radius + kFootprintSlackMiles);
    std::vector<std::size_t> candidates;
    candidates.reserve(nearby.size());
    for (const spatial::Neighbor& hit : nearby) {
      candidates.push_back(hit.index);
    }
    std::sort(candidates.begin(), candidates.end());
    for (const std::size_t v : candidates) {
      // Exact per-node evaluation: the kd query only prefilters, so the
      // raster matches a full-plane RiskAt pass bit for bit.
      const double risk = field.RiskAt(engine.location(v));
      if (risk > 0.0) {
        forecast[v] = risk;
        scope.push_back(v);
      }
    }
  }

  RouteDiff diff = ApplyScope(scope, forecast);
  diff.advisory_number = advisory.number;
  diff.advisory_time =
      IsValidCivil(advisory.time) ? advisory.time.ToString() : "-";
  diff.source = "live";
  last_number_ = advisory.number;
  ++advisory_count_;
  if (obs::Enabled()) {
    StreamMetrics& metrics = StreamMetrics::Get();
    metrics.advisories.Add(1);
    metrics.scope_pops.Add(scope.size());
  }
  return diff;
}

RouteDiff StreamingReroute::FallbackToStatic() {
  RouteDiff diff = ApplyScope({}, {});
  diff.advisory_number = 0;
  diff.advisory_time = "-";
  diff.source = "static-fallback";
  if (obs::Enabled()) StreamMetrics::Get().fallbacks.Add(1);
  return diff;
}

RouteDiff StreamingReroute::ApplyScope(std::span<const std::size_t> scope,
                                       std::span<const double> forecast) {
  const core::RouteEngine& engine = routes_->engine();
  const std::size_t n = engine.node_count();
  overlay_.Clear();
  std::vector<std::uint32_t> scope_links;
  if (!scope.empty()) {
    // Override plane: the engine's own baseline scores outside the
    // footprint (bitwise what a refreeze computes at forecast 0) and
    // ScoreWithForecast — the RebuildRiskPlane expression in the
    // engine's translation unit — inside it.
    std::vector<double> scores(n);
    for (std::size_t v = 0; v < n; ++v) scores[v] = engine.NodeScore(v);
    for (const std::size_t v : scope) {
      scores[v] = engine.ScoreWithForecast(v, forecast[v]);
      for (std::size_t e = engine.EdgeBegin(v); e < engine.EdgeEnd(v); ++e) {
        scope_links.push_back(engine.EdgeLink(e));
      }
    }
    overlay_.SetNodeScoreOverride(std::move(scores));
  }
  const core::EdgeOverlay* const overlay =
      scope.empty() ? nullptr : &overlay_;

  // Affected pairs: those whose baseline path crosses the footprint
  // (re-routed against the overlay) merged with those diverged from the
  // table (a diverged pair the footprint released is back at the table's
  // answer: non-negative deltas never cheapen alternatives). Every other
  // pair keeps its answer — those are the cache hits.
  const std::vector<std::uint32_t> crossing =
      routes_->SlotsCrossing(scope_links);
  struct Step {
    std::uint32_t slot = 0;
    bool rerouted = false;
    Diverged* before = nullptr;  // its diverged answer, if any
    Diverged* after = nullptr;   // its diverged answer after this advisory
    Diverged fresh;              // a new diverged answer (after == &fresh)
    bool moved = false;
    PairMove move;
  };
  std::vector<Step> steps;
  steps.reserve(crossing.size() + diverged_.size());
  for (std::size_t c = 0, d = 0; c < crossing.size() || d < diverged_.size();) {
    Step& step = steps.emplace_back();
    step.rerouted = c < crossing.size() &&
                    (d == diverged_.size() || crossing[c] <= diverged_[d].slot);
    step.slot = step.rerouted ? crossing[c++] : diverged_[d].slot;
    if (d < diverged_.size() && diverged_[d].slot == step.slot) {
      step.before = &diverged_[d++];
    }
  }

  // Disjoint writes per step: bitwise identical results for any thread
  // count. Digests are taken only for the moves.
  util::ParallelFor(options_.pool, steps.size(), [&](std::size_t k) {
    thread_local core::DijkstraWorkspace ws;
    thread_local std::vector<std::uint32_t> path;  // the re-routed path
    Step& step = steps[k];
    const Answer base{routes_->Weight(step.slot),
                      routes_->PathNodes(step.slot)};
    const Answer before =
        step.before != nullptr
            ? Answer{step.before->bit_risk_miles, step.before->path}
            : base;
    Answer now = base;
    const auto [src, dst] = routes_->Endpoints(step.slot);
    if (step.rerouted) {
      engine.Run(ws, src, engine.Alpha(src, dst), dst, overlay);
      const core::Path settled =
          ws.Reached(dst) ? ws.PathTo(dst) : core::Path();
      path.assign(settled.begin(), settled.end());
      const Answer rerouted{ws.Reached(dst) ? ws.DistanceTo(dst) : kInf, path};
      if (!(rerouted != before)) {
        now = before;
        step.after = step.before;
      } else if (rerouted != base) {
        now = rerouted;
        step.after = &step.fresh;
      }
    }
    step.moved = before != now;
    if (step.moved) {
      step.move = {static_cast<std::uint32_t>(src),
                   static_cast<std::uint32_t>(dst),
                   before.bit_risk_miles,
                   now.bit_risk_miles,
                   NodesDigest(before.path),
                   NodesDigest(now.path)};
    }
    // Diverged paths are allocated and freed here, on the pool, not in
    // the serial pass; an outgoing path's buffer takes the new path.
    std::vector<std::uint32_t> buffer;
    if (step.before != nullptr && step.after != step.before) {
      buffer = std::move(step.before->path);
    }
    if (step.after == &step.fresh) {
      buffer.assign(path.begin(), path.end());
      step.fresh = {step.slot, now.bit_risk_miles, std::move(buffer)};
    }
  });

  // Serial diff + divergence rebuild in ascending pair order.
  RouteDiff diff;
  diff.pairs_tracked = routes_->pair_count();
  std::vector<Diverged> diverged;
  for (Step& step : steps) {
    if (step.moved) {
      diff.total_abs_delta += std::abs(step.move.Delta());
      diff.moves.push_back(step.move);
    }
    if (step.after != nullptr) diverged.push_back(std::move(*step.after));
  }
  diverged_ = std::move(diverged);
  diff.pops_in_scope = scope.size();
  diff.pairs_recomputed = crossing.size();
  diff.pairs_moved = diff.moves.size();
  if (obs::Enabled()) {
    StreamMetrics& metrics = StreamMetrics::Get();
    metrics.pairs_recomputed.Add(crossing.size());
    metrics.cache_hits.Add(diff.pairs_tracked - crossing.size());
    metrics.pairs_moved.Add(diff.moves.size());
  }
  return diff;
}

const StreamingReroute::Diverged* StreamingReroute::FindDiverged(
    std::size_t slot) const {
  const auto it = std::lower_bound(
      diverged_.begin(), diverged_.end(), slot,
      [](const Diverged& d, std::size_t s) { return d.slot < s; });
  return it != diverged_.end() && it->slot == slot ? &*it : nullptr;
}

std::vector<PairAnswer> StreamingReroute::Answers() const {
  std::vector<PairAnswer> out;
  out.reserve(pair_count());
  const std::size_t n = engine().node_count();
  auto next = diverged_.begin();
  std::size_t p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++p) {
      PairAnswer answer;
      answer.src = static_cast<std::uint32_t>(i);
      answer.dst = static_cast<std::uint32_t>(j);
      if (next != diverged_.end() && next->slot == p) {
        answer.bit_risk_miles = next->bit_risk_miles;
        answer.digest = NodesDigest(next->path);
        ++next;
      } else {
        answer.bit_risk_miles = routes_->Weight(p);
        answer.digest = NodesDigest(routes_->PathNodes(p));
      }
      out.push_back(answer);
    }
  }
  return out;
}

core::Path StreamingReroute::CurrentPath(std::size_t src,
                                         std::size_t dst) const {
  const std::size_t p = routes_->Slot(src, dst);
  const Diverged* d = FindDiverged(p);
  const std::span<const std::uint32_t> nodes =
      d != nullptr ? d->path : routes_->PathNodes(p);
  return core::Path(nodes.begin(), nodes.end());
}

double StreamingReroute::CurrentBitRiskMiles(std::size_t src,
                                             std::size_t dst) const {
  const std::size_t p = routes_->Slot(src, dst);
  const Diverged* d = FindDiverged(p);
  return d != nullptr ? d->bit_risk_miles : routes_->Weight(p);
}

std::string StreamingReroute::Render(const RouteDiff& diff) const {
  return RenderRouteDiff(diff, engine(), options_.top_moves);
}

}  // namespace riskroute::forecast
