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

bool MasksIntersect(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
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
  const std::size_t pairs = routes_->pair_count();
  mask_words_ = (n + 63) / 64;
  base_digest_.resize(pairs);
  base_mask_.assign(pairs * mask_words_, 0);
  cur_brm_.resize(pairs);
  cur_path_.resize(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    const std::span<const std::uint32_t> path = routes_->PathNodes(p);
    base_digest_[p] = NodesDigest(path);
    std::uint64_t* const mask = base_mask_.data() + p * mask_words_;
    for (const std::uint32_t v : path) mask[v / 64] |= 1ULL << (v % 64);
    cur_brm_[p] = routes_->Weight(p);
  }
  cur_digest_ = base_digest_;

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
  const std::size_t pairs = routes_->pair_count();
  overlay_.Clear();
  std::vector<std::uint64_t> scope_mask(mask_words_, 0);
  if (!scope.empty()) {
    // Override plane: the engine's own baseline scores outside the
    // footprint (bitwise what a refreeze computes at forecast 0) and
    // ScoreWithForecast — the RebuildRiskPlane expression in the
    // engine's translation unit — inside it.
    std::vector<double> scores(n);
    for (std::size_t v = 0; v < n; ++v) scores[v] = engine.NodeScore(v);
    for (const std::size_t v : scope) {
      scores[v] = engine.ScoreWithForecast(v, forecast[v]);
      scope_mask[v / 64] |= 1ULL << (v % 64);
    }
    overlay_.SetNodeScoreOverride(std::move(scores));
  }
  const core::EdgeOverlay* const overlay =
      scope.empty() ? nullptr : &overlay_;

  // Affected pairs: those whose baseline path crosses the footprint
  // (must be re-routed against the overlay) plus those currently
  // diverged from baseline (must be re-routed or reset). Everything
  // else keeps its answer — those are the cache hits.
  std::vector<std::uint32_t> affected;
  std::vector<char> recompute;  // parallel to `affected`
  std::size_t next_diverged = 0;
  for (std::size_t p = 0; p < pairs; ++p) {
    const bool hits_scope =
        !scope.empty() &&
        MasksIntersect(base_mask_.data() + p * mask_words_,
                       scope_mask.data(), mask_words_);
    bool was_diverged = false;
    if (next_diverged < diverged_.size() && diverged_[next_diverged] == p) {
      was_diverged = true;
      ++next_diverged;
    }
    if (hits_scope || was_diverged) {
      affected.push_back(static_cast<std::uint32_t>(p));
      recompute.push_back(hits_scope ? 1 : 0);
    }
  }

  // Snapshot the outgoing answers before overwriting them.
  std::vector<double> old_brm(affected.size());
  std::vector<std::uint64_t> old_digest(affected.size());
  for (std::size_t k = 0; k < affected.size(); ++k) {
    old_brm[k] = cur_brm_[affected[k]];
    old_digest[k] = cur_digest_[affected[k]];
  }

  // Disjoint writes per affected pair: bitwise identical results for
  // any thread count.
  const auto reroute = [&](std::size_t k) {
    const std::size_t p = affected[k];
    if (recompute[k] == 0) {
      // The footprint released this pair: its optimum is the baseline
      // answer again (non-negative deltas never cheapen alternatives).
      cur_brm_[p] = routes_->Weight(p);
      cur_digest_[p] = base_digest_[p];
      return;
    }
    thread_local core::DijkstraWorkspace ws;
    const auto [src, dst] = routes_->Endpoints(p);
    engine.Run(ws, src, engine.Alpha(src, dst), dst, overlay);
    if (!ws.Reached(dst)) {
      cur_brm_[p] = kInf;
      cur_digest_[p] = 0;
      cur_path_[p].clear();
      return;
    }
    cur_brm_[p] = ws.DistanceTo(dst);
    cur_path_[p] = ws.PathTo(dst);
    cur_digest_[p] = PathDigest(cur_path_[p]);
  };
  util::ParallelFor(options_.pool, affected.size(), reroute);

  // Serial diff + divergence rebuild in ascending pair order.
  RouteDiff diff;
  diff.pairs_tracked = pairs;
  std::size_t recomputed = 0;
  std::vector<std::uint32_t> diverged;
  for (std::size_t k = 0; k < affected.size(); ++k) {
    const std::size_t p = affected[k];
    if (recompute[k] != 0) ++recomputed;
    if (cur_brm_[p] != routes_->Weight(p) ||
        cur_digest_[p] != base_digest_[p]) {
      diverged.push_back(affected[k]);
    }
    if (cur_brm_[p] != old_brm[k] || cur_digest_[p] != old_digest[k]) {
      const auto [src, dst] = routes_->Endpoints(p);
      PairMove move;
      move.src = static_cast<std::uint32_t>(src);
      move.dst = static_cast<std::uint32_t>(dst);
      move.before_bit_risk_miles = old_brm[k];
      move.after_bit_risk_miles = cur_brm_[p];
      move.before_digest = old_digest[k];
      move.after_digest = cur_digest_[p];
      diff.total_abs_delta += std::abs(move.Delta());
      diff.moves.push_back(move);
    }
  }
  diverged_ = std::move(diverged);
  diff.pops_in_scope = scope.size();
  diff.pairs_recomputed = recomputed;
  diff.pairs_moved = diff.moves.size();
  if (obs::Enabled()) {
    StreamMetrics& metrics = StreamMetrics::Get();
    metrics.pairs_recomputed.Add(recomputed);
    metrics.cache_hits.Add(pairs - recomputed);
    metrics.pairs_moved.Add(diff.moves.size());
  }
  return diff;
}

std::vector<PairAnswer> StreamingReroute::Answers() const {
  std::vector<PairAnswer> out;
  out.reserve(pair_count());
  const std::size_t n = engine().node_count();
  std::size_t p = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++p) {
      PairAnswer answer;
      answer.src = static_cast<std::uint32_t>(i);
      answer.dst = static_cast<std::uint32_t>(j);
      answer.bit_risk_miles = cur_brm_[p];
      answer.digest = cur_digest_[p];
      out.push_back(answer);
    }
  }
  return out;
}

core::Path StreamingReroute::CurrentPath(std::size_t src,
                                         std::size_t dst) const {
  const std::size_t p = routes_->Slot(src, dst);
  if (std::binary_search(diverged_.begin(), diverged_.end(), p)) {
    return cur_path_[p];
  }
  const std::span<const std::uint32_t> nodes = routes_->PathNodes(p);
  return core::Path(nodes.begin(), nodes.end());
}

double StreamingReroute::CurrentBitRiskMiles(std::size_t src,
                                             std::size_t dst) const {
  return cur_brm_[routes_->Slot(src, dst)];
}

std::string StreamingReroute::Render(const RouteDiff& diff) const {
  return RenderRouteDiff(diff, engine(), options_.top_moves);
}

}  // namespace riskroute::forecast
