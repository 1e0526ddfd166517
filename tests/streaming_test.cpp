// forecast::StreamingReroute tests — the incremental advisory re-route
// session behind `riskroute stream` and the StreamAdvisory wire kind.
//
// The load-bearing contract is differential: after every ingested
// advisory, the session's per-pair answers (bit-risk-miles, digest, and
// the settled path itself) are bitwise identical to a from-scratch
// rebuild of the engine at that advisory — across all three embedded
// track libraries (Katrina 61 + Irene 70 + Sandy 60 advisories) and for
// any worker-pool size. The diff algebra (Compose), the sequencing
// guard, the cache-hit accounting, and the api::Service session reuse
// ride on top.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/service.h"
#include "core/pair_routes.h"
#include "core/risk_graph.h"
#include "core/route_engine.h"
#include "core/shortest_path.h"
#include "forecast/forecast_risk.h"
#include "forecast/streaming.h"
#include "forecast/tracks.h"
#include "geo/geo_point.h"
#include "obs/metrics.h"
#include "server/handlers.h"
#include "server/wire.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace riskroute {
namespace {

using core::RiskGraph;
using core::RiskNode;
using core::RiskParams;
using core::RouteEngine;

constexpr RiskParams kParams{1e5, 1e3};
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Synthetic CONUS-box graph with a zero forecast plane (the streaming
/// session owns that dimension). Same idiom as the api/service tests.
RiskGraph StreamGraph(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  RiskGraph graph;
  for (std::size_t i = 0; i < n; ++i) {
    graph.AddNode(RiskNode{
        "pop-" + std::to_string(i),
        geo::GeoPoint(rng.Uniform(26, 48), rng.Uniform(-123, -68)),
        rng.Uniform(0.01, 1.0), rng.Uniform(0.0, 0.5), 0.0});
  }
  for (std::size_t i = 1; i < n; ++i) {
    graph.AddEdgeByDistance(
        i, static_cast<std::size_t>(
               rng.UniformInt(0, static_cast<std::int64_t>(i) - 1)));
  }
  for (std::size_t i = 0; i + 3 < n; i += 3) graph.AddEdgeByDistance(i, i + 3);
  return graph;
}

/// From-scratch state at one advisory: forecast plane rebuilt over the
/// whole graph, engine refrozen, one targeted sweep per pair — the
/// naive path the streaming session must reproduce bitwise.
struct Rebuilt {
  std::vector<forecast::PairAnswer> answers;
  std::vector<core::Path> paths;
};

Rebuilt RebuildAt(const RiskGraph& base, const forecast::Advisory& advisory,
                  std::size_t landmarks) {
  RiskGraph graph = base;
  const forecast::ForecastRiskField field(advisory);
  std::vector<double> risks(graph.node_count());
  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    risks[v] = field.RiskAt(graph.node(v).location);
  }
  graph.SetForecastRisks(risks);
  RouteEngine engine(graph, kParams);
  if (landmarks > 0) engine.PrepareLandmarks(landmarks);

  Rebuilt out;
  core::DijkstraWorkspace ws;
  const std::size_t n = graph.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      forecast::PairAnswer answer;
      answer.src = static_cast<std::uint32_t>(i);
      answer.dst = static_cast<std::uint32_t>(j);
      engine.Run(ws, i, engine.Alpha(i, j), j);
      core::Path path;
      if (ws.Reached(j)) {
        answer.bit_risk_miles = ws.DistanceTo(j);
        path = ws.PathTo(j);
        answer.digest = forecast::PathDigest(path);
      } else {
        answer.bit_risk_miles = kInf;
        answer.digest = 0;
      }
      out.answers.push_back(answer);
      out.paths.push_back(std::move(path));
    }
  }
  return out;
}

/// Replays every advisory of every embedded storm through one session
/// per storm, asserting bitwise identity with the from-scratch rebuild
/// after each step.
void DifferentialReplay(std::size_t threads, std::size_t landmarks,
                        bool all_storms) {
  const RiskGraph graph = StreamGraph(24, 77);
  RouteEngine engine(graph, kParams);
  if (landmarks > 0) engine.PrepareLandmarks(landmarks);

  std::optional<util::ThreadPool> pool;
  forecast::StreamOptions options;
  if (threads > 1) {
    pool.emplace(threads);
    options.pool = &*pool;
  }

  std::vector<const forecast::StormTrack*> tracks;
  if (all_storms) {
    tracks = forecast::AllTracks();
  } else {
    tracks = {&forecast::IreneTrack()};
  }
  std::size_t advisories_with_scope = 0;
  std::size_t total_moves = 0;
  for (const forecast::StormTrack* track : tracks) {
    forecast::StreamingReroute session(engine, options);
    const auto advisories = forecast::GenerateAdvisories(*track);
    ASSERT_EQ(advisories.size(), track->advisory_count);
    for (const forecast::Advisory& advisory : advisories) {
      auto diff = session.Ingest(advisory);
      ASSERT_TRUE(diff.ok()) << track->name << " #" << advisory.number;
      if (diff.value().pops_in_scope > 0) ++advisories_with_scope;
      total_moves += diff.value().pairs_moved;
      const Rebuilt rebuilt = RebuildAt(graph, advisory, landmarks);
      const auto answers = session.Answers();
      ASSERT_EQ(answers.size(), rebuilt.answers.size());
      for (std::size_t p = 0; p < answers.size(); ++p) {
        ASSERT_EQ(answers[p], rebuilt.answers[p])
            << track->name << " #" << advisory.number << " pair ("
            << answers[p].src << ", " << answers[p].dst << ") threads "
            << threads;
        ASSERT_EQ(session.CurrentPath(answers[p].src, answers[p].dst),
                  rebuilt.paths[p])
            << track->name << " #" << advisory.number << " pair ("
            << answers[p].src << ", " << answers[p].dst << ")";
      }
    }
    EXPECT_EQ(session.advisory_count(), advisories.size());
  }
  // Guard against a vacuous pass: the replay must actually land storms
  // on the graph and move answers, not just agree about nothing.
  EXPECT_GT(advisories_with_scope, 0u);
  EXPECT_GT(total_moves, 0u);
}

// The tentpole contract: all 191 embedded advisories, bitwise, at each
// gated thread count.
TEST(StreamingDifferential, AllStormsSerial) { DifferentialReplay(1, 0, true); }
TEST(StreamingDifferential, AllStormsTwoThreads) {
  DifferentialReplay(2, 0, true);
}
TEST(StreamingDifferential, AllStormsEightThreads) {
  DifferentialReplay(8, 0, true);
}

// Goal-directed flavor: with ALT landmarks prepared the session's sweeps
// run A*; identity must hold against an equally-prepared rebuild.
TEST(StreamingDifferential, IreneWithAltLandmarks) {
  DifferentialReplay(2, 4, false);
}

TEST(StreamingTest, ConstructorRejectsNonBaselineEngine) {
  RiskGraph graph = StreamGraph(8, 5);
  std::vector<double> risks(graph.node_count(), 0.0);
  risks[3] = 12.0;
  graph.SetForecastRisks(risks);
  const RouteEngine engine(graph, kParams);
  EXPECT_THROW(forecast::StreamingReroute session(engine), InvalidArgument);
  // A miles table is not a baseline either.
  const RouteEngine baseline(StreamGraph(8, 5), kParams);
  EXPECT_THROW(forecast::StreamingReroute session(
                   std::make_shared<const core::PairRoutes>(
                       baseline, nullptr, core::RouteMetric::kDistance)),
               InvalidArgument);
}

TEST(StreamingTest, EmptyFootprintAdvisoryYieldsEmptyDiff) {
  const RiskGraph graph = StreamGraph(16, 21);
  const RouteEngine engine(graph, kParams);
  forecast::StreamingReroute session(engine);
  const auto baseline = session.Answers();

  // Mid-Atlantic center, far outside the kd-tree's PoP cloud.
  forecast::Advisory advisory;
  advisory.storm_name = "NOWHERE";
  advisory.number = 1;
  advisory.center = geo::GeoPoint(31.0, -40.0);
  advisory.tropical_wind_radius_miles = 120.0;
  advisory.hurricane_wind_radius_miles = 40.0;
  auto diff = session.Ingest(advisory);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff.value().empty());
  EXPECT_EQ(diff.value().pops_in_scope, 0u);
  EXPECT_EQ(diff.value().pairs_recomputed, 0u);
  EXPECT_TRUE(session.overlay().empty());
  EXPECT_EQ(session.Answers(), baseline);

  // Zero wind radii: no footprint regardless of the center.
  advisory.number = 2;
  advisory.center = geo::GeoPoint(37.0, -95.0);
  advisory.tropical_wind_radius_miles = 0.0;
  advisory.hurricane_wind_radius_miles = 0.0;
  diff = session.Ingest(advisory);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff.value().empty());
  EXPECT_EQ(session.Answers(), baseline);
}

TEST(StreamingTest, SequencingRejectsDuplicateAndOutOfOrder) {
  const RiskGraph graph = StreamGraph(12, 9);
  const RouteEngine engine(graph, kParams);
  forecast::StreamingReroute session(engine);

  forecast::Advisory advisory;
  advisory.storm_name = "SEQ";
  advisory.number = 5;
  advisory.center = geo::GeoPoint(31.0, -40.0);
  ASSERT_TRUE(session.Ingest(advisory).ok());
  const auto baseline = session.Answers();

  auto duplicate = session.Ingest(advisory);
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.error().kind, util::ParseErrorKind::kBadValue);
  EXPECT_NE(duplicate.error().message.find(
                "duplicate advisory number 5 (session already at 5)"),
            std::string::npos);

  advisory.number = 3;
  auto stale = session.Ingest(advisory);
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.error().message.find(
                "out-of-order advisory number 3 (session already at 5)"),
            std::string::npos);

  // Rejects leave the session untouched: same answers, same position.
  EXPECT_EQ(session.last_advisory_number(), 5);
  EXPECT_EQ(session.advisory_count(), 1u);
  EXPECT_EQ(session.Answers(), baseline);

  advisory.number = 6;
  EXPECT_TRUE(session.Ingest(advisory).ok());
}

/// Expected endpoint diff between two answer snapshots, ascending pair.
std::vector<forecast::PairMove> SnapshotDiff(
    const std::vector<forecast::PairAnswer>& before,
    const std::vector<forecast::PairAnswer>& after) {
  std::vector<forecast::PairMove> moves;
  for (std::size_t p = 0; p < before.size(); ++p) {
    if (before[p].bit_risk_miles == after[p].bit_risk_miles &&
        before[p].digest == after[p].digest) {
      continue;
    }
    forecast::PairMove move;
    move.src = before[p].src;
    move.dst = before[p].dst;
    move.before_bit_risk_miles = before[p].bit_risk_miles;
    move.after_bit_risk_miles = after[p].bit_risk_miles;
    move.before_digest = before[p].digest;
    move.after_digest = after[p].digest;
    moves.push_back(move);
  }
  return moves;
}

TEST(StreamingCompose, ConsecutiveDiffsComposeToEndpointDiff) {
  const RiskGraph graph = StreamGraph(20, 33);
  const RouteEngine engine(graph, kParams);
  forecast::StreamingReroute session(engine);

  const auto advisories =
      forecast::GenerateAdvisories(forecast::IreneTrack());
  const auto start = session.Answers();
  std::vector<std::vector<forecast::PairAnswer>> snapshots{start};
  std::vector<forecast::RouteDiff> diffs;
  std::size_t recomputed = 0;
  for (std::size_t a = 0; a < 12; ++a) {
    auto diff = session.Ingest(advisories[a]);
    ASSERT_TRUE(diff.ok());
    recomputed += diff.value().pairs_recomputed;
    diffs.push_back(std::move(diff).value());
    snapshots.push_back(session.Answers());
  }

  // Pairwise: Compose(d_k, d_{k+1}) equals the snapshot-to-snapshot diff.
  for (std::size_t a = 0; a + 1 < diffs.size(); ++a) {
    const forecast::RouteDiff composed = Compose(diffs[a], diffs[a + 1]);
    EXPECT_EQ(composed.moves, SnapshotDiff(snapshots[a], snapshots[a + 2]))
        << "compose at advisory " << a;
    EXPECT_EQ(composed.advisory_number, diffs[a + 1].advisory_number);
    EXPECT_EQ(composed.source, "live");
  }

  // Folded over the whole prefix: start-to-latest endpoint diff, with
  // recompute counts accumulating.
  forecast::RouteDiff folded = diffs[0];
  for (std::size_t a = 1; a < diffs.size(); ++a) {
    folded = Compose(folded, diffs[a]);
  }
  EXPECT_EQ(folded.moves, SnapshotDiff(start, snapshots.back()));
  EXPECT_EQ(folded.pairs_recomputed, recomputed);
  EXPECT_EQ(folded.pairs_moved, folded.moves.size());

  // A fallback transition returns every answer to baseline, so folding
  // it in cancels the whole session: the empty diff.
  const forecast::RouteDiff fallback = session.FallbackToStatic();
  EXPECT_EQ(fallback.source, "static-fallback");
  EXPECT_EQ(fallback.advisory_number, 0);
  EXPECT_EQ(session.Answers(), start);
  const forecast::RouteDiff round_trip = Compose(folded, fallback);
  EXPECT_TRUE(round_trip.empty());
  EXPECT_EQ(round_trip.total_abs_delta, 0.0);

  // The sequence position survives the fallback: the live feed resumes.
  auto resumed = session.Ingest(advisories[12]);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.value().source, "live");
}

TEST(StreamingTest, CacheHitCountersAccountForSkippedPairs) {
  if (!obs::Enabled()) GTEST_SKIP() << "obs registry disabled";
  const RiskGraph graph = StreamGraph(18, 41);
  const RouteEngine engine(graph, kParams);
  forecast::StreamingReroute session(engine);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& hits = reg.GetCounter("stream.cache.hits");
  obs::Counter& recomputes = reg.GetCounter("stream.pairs.recomputed");

  // Replay the whole Irene library: every ingest must account for each
  // tracked pair as either a recompute or a cache hit, and at least one
  // landfalling advisory must exercise a real (partial) footprint.
  bool partial_footprint_seen = false;
  for (const forecast::Advisory& advisory :
       forecast::GenerateAdvisories(forecast::IreneTrack())) {
    const std::uint64_t hits_before = hits.Total();
    const std::uint64_t recomputes_before = recomputes.Total();
    const forecast::RouteDiff diff = session.Ingest(advisory).value();
    EXPECT_EQ(recomputes.Total() - recomputes_before, diff.pairs_recomputed);
    EXPECT_EQ(hits.Total() - hits_before,
              session.pair_count() - diff.pairs_recomputed);
    if (diff.pops_in_scope > 0 && diff.pairs_recomputed > 0 &&
        diff.pairs_recomputed < session.pair_count()) {
      partial_footprint_seen = true;
    }
  }
  EXPECT_TRUE(partial_footprint_seen)
      << "footprint skip never fired — the cache plane is dead";
}

// Sessions started from one shared core::PairRoutes table replay exactly
// like sessions that sweep a private table, and never disturb each other:
// the table is read-only, every session's state is its own.
TEST(StreamingTest, SharedPairTableReplaysLikeEngineConstructor) {
  const RiskGraph graph = StreamGraph(20, 19);
  RouteEngine engine(graph, kParams);
  engine.PrepareLandmarks(4);
  util::ThreadPool pool(2);
  forecast::StreamOptions options;
  options.pool = &pool;
  const auto routes = std::make_shared<const core::PairRoutes>(engine, &pool);

  forecast::StreamingReroute irene_private(engine, options);
  forecast::StreamingReroute katrina_private(engine, options);
  forecast::StreamingReroute irene_shared(routes, options);
  forecast::StreamingReroute katrina_shared(routes, options);
  const auto baseline = irene_private.Answers();
  ASSERT_EQ(irene_shared.Answers(), baseline);

  const auto irene = forecast::GenerateAdvisories(forecast::IreneTrack());
  const auto katrina = forecast::GenerateAdvisories(forecast::KatrinaTrack());
  std::size_t moves = 0;
  for (std::size_t a = 0; a < std::max(irene.size(), katrina.size()); ++a) {
    if (a < irene.size()) {
      const auto want = irene_private.Ingest(irene[a]);
      const auto got = irene_shared.Ingest(irene[a]);
      ASSERT_TRUE(want.ok() && got.ok()) << "Irene #" << a;
      moves += got.value().pairs_moved;
      ASSERT_EQ(irene_shared.Render(got.value()),
                irene_private.Render(want.value()));
      ASSERT_EQ(irene_shared.Answers(), irene_private.Answers());
    }
    if (a < katrina.size()) {
      const auto want = katrina_private.Ingest(katrina[a]);
      const auto got = katrina_shared.Ingest(katrina[a]);
      ASSERT_TRUE(want.ok() && got.ok()) << "Katrina #" << a;
      ASSERT_EQ(katrina_shared.Render(got.value()),
                katrina_private.Render(want.value()));
      ASSERT_EQ(katrina_shared.Answers(), katrina_private.Answers());
    }
  }
  EXPECT_GT(moves, 0u);
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    for (std::size_t j = i + 1; j < graph.node_count(); ++j) {
      ASSERT_EQ(irene_shared.CurrentPath(i, j), irene_private.CurrentPath(i, j));
      ASSERT_EQ(irene_shared.CurrentBitRiskMiles(i, j),
                irene_private.CurrentBitRiskMiles(i, j));
    }
  }
  // A session started after both replays still starts at the baseline.
  EXPECT_EQ(forecast::StreamingReroute(routes, options).Answers(), baseline);
}

// ---------------------------------------------------------------------------
// api::Service plumbing: one hoisted session per service, reused across
// StreamAdvisory requests; body identical to the library rendering.

TEST(StreamingService, SessionIsReusedAcrossRequestsAndResets) {
  if (!obs::Enabled()) GTEST_SKIP() << "obs registry disabled";
  const RiskGraph graph = StreamGraph(16, 55);
  const api::Service service(RouteEngine(graph, kParams));

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& sessions = reg.GetCounter("api.stream.sessions");
  obs::Counter& reuses = reg.GetCounter("api.stream.session_reuses");
  const std::uint64_t sessions_before = sessions.Total();
  const std::uint64_t reuses_before = reuses.Total();

  const auto texts =
      forecast::GenerateAdvisoryTexts(forecast::IreneTrack());
  api::StreamAdvisoryRequest request;
  request.bulletin = texts[0];
  const api::RouteDiffResponse first = service.StreamAdvisory(request);
  EXPECT_EQ(first.diff.source, "live");
  EXPECT_EQ(first.diff.advisory_number, 1);
  EXPECT_EQ(sessions.Total() - sessions_before, 1u);

  request.bulletin = texts[1];
  const api::RouteDiffResponse second = service.StreamAdvisory(request);
  EXPECT_EQ(second.diff.advisory_number, 2);
  EXPECT_EQ(sessions.Total() - sessions_before, 1u)
      << "second request must reuse the hoisted session, not rebuild it";
  EXPECT_EQ(reuses.Total() - reuses_before, 1u);

  // Replaying a served bulletin violates the sequence guard.
  EXPECT_THROW((void)service.StreamAdvisory(request), InvalidArgument);

  // reset=true discards the session; the sequence starts over.
  request.bulletin = texts[0];
  request.reset = true;
  const api::RouteDiffResponse fresh = service.StreamAdvisory(request);
  EXPECT_EQ(fresh.diff.advisory_number, 1);
  EXPECT_EQ(sessions.Total() - sessions_before, 2u);
  EXPECT_EQ(fresh.body, first.body);
}

TEST(StreamingService, BodyMatchesLibraryRendering) {
  const RiskGraph graph = StreamGraph(16, 55);
  const api::Service service(RouteEngine(graph, kParams));
  const RouteEngine reference_engine(graph, kParams);
  forecast::StreamingReroute reference(reference_engine);

  const auto texts =
      forecast::GenerateAdvisoryTexts(forecast::SandyTrack());
  api::StreamAdvisoryRequest request;
  request.top = 2;
  for (std::size_t a = 0; a < 6; ++a) {
    request.bulletin = texts[a];
    const api::RouteDiffResponse served = service.StreamAdvisory(request);
    auto expected = reference.IngestText(texts[a]);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(served.body, RenderRouteDiff(expected.value(),
                                           reference_engine, request.top))
        << "advisory " << a;
  }
}

TEST(StreamingService, UnparsableBulletinFallsBackToStatic) {
  const RiskGraph graph = StreamGraph(12, 63);
  const api::Service service(RouteEngine(graph, kParams));
  const auto texts =
      forecast::GenerateAdvisoryTexts(forecast::IreneTrack());
  api::StreamAdvisoryRequest request;
  request.bulletin = texts[0];
  ASSERT_EQ(service.StreamAdvisory(request).diff.source, "live");

  request.bulletin = "NOT AN ADVISORY AT ALL";
  const api::RouteDiffResponse fallback = service.StreamAdvisory(request);
  EXPECT_EQ(fallback.diff.source, "static-fallback");
  EXPECT_EQ(fallback.body.rfind("advisory rejected: ", 0), 0u);

  // The live feed resumes on the same session after the fallback.
  request.bulletin = texts[1];
  EXPECT_EQ(service.StreamAdvisory(request).diff.source, "live");
}

// ---------------------------------------------------------------------------
// Wire + handler: the StreamAdvisory frame kind round-trips canonically
// and a served frame's body equals the direct api::Service call.

TEST(StreamingWire, FrameRoundTripsAndServesIdenticalBody) {
  const RiskGraph graph = StreamGraph(14, 71);
  const api::Service service(RouteEngine(graph, kParams));
  const auto texts =
      forecast::GenerateAdvisoryTexts(forecast::IreneTrack());

  server::wire::Request request;
  request.kind = server::wire::FrameKind::kStreamAdvisory;
  request.id = 42;
  request.deadline_ms = 1500;
  request.stream.bulletin = texts[0];
  request.stream.reset = true;  // fresh session per serve: deterministic
  request.stream.top = 2;

  const std::string encoded = server::wire::EncodeRequest(request);
  const server::wire::WireLimits limits;
  auto frame = server::wire::DecodeSingleFrame(
      {reinterpret_cast<const std::uint8_t*>(encoded.data()),
       encoded.size()},
      limits);
  ASSERT_TRUE(frame.ok()) << frame.error().Render();
  auto decoded = server::wire::DecodeRequestPayload(
      frame.value().header,
      {reinterpret_cast<const std::uint8_t*>(frame.value().payload.data()),
       frame.value().payload.size()},
      limits);
  ASSERT_TRUE(decoded.ok()) << decoded.error().Render();
  EXPECT_EQ(decoded.value().stream.bulletin, request.stream.bulletin);
  EXPECT_EQ(decoded.value().stream.reset, true);
  EXPECT_EQ(decoded.value().stream.top, 2u);
  EXPECT_EQ(decoded.value().deadline_ms, 1500u);
  // Canonical: a decoded frame re-encodes to the exact input bytes.
  EXPECT_EQ(server::wire::EncodeRequest(decoded.value()), encoded);

  const auto [status, body] = server::HandleRequest(service, decoded.value());
  EXPECT_EQ(status, server::wire::Status::kOk);
  EXPECT_EQ(body, service.StreamAdvisory(request.stream).body);

  // A sequence violation surfaces as kBadRequest, not a dead connection:
  // advisory #2 extends the live session, replaying it does not.
  server::wire::Request replay = request;
  replay.stream.reset = false;
  replay.stream.bulletin = texts[1];
  ASSERT_EQ(server::HandleRequest(service, replay).first,
            server::wire::Status::kOk);
  EXPECT_EQ(server::HandleRequest(service, replay).first,
            server::wire::Status::kBadRequest);
}

}  // namespace
}  // namespace riskroute
