// Engine snapshot tests: the versioned little-endian SoA format behind
// RouteEngine::SaveSnapshot / LoadSnapshot. The format is canonical — an
// accepted byte string is exactly what the writer produces — so
// round-trips are asserted byte-for-byte, and every class of hostile
// mutation must surface as a ParseDiagnostic, never as UB or a throw.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/multi_objective.h"
#include "core/risk_graph.h"
#include "core/risk_params.h"
#include "core/route_engine.h"
#include "tests/graph_fixtures.h"
#include "util/parse_result.h"

namespace riskroute {
namespace {

using core::DijkstraWorkspace;
using core::RiskGraph;
using core::RiskParams;
using core::RouteEngine;
using core::RouteMetric;
using fixtures::SampleGraph;

constexpr RiskParams kParams{1e5, 1e3};

std::span<const std::uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(SnapshotTest, RoundTripIsByteExactWithAndWithoutLandmarks) {
  const RiskGraph graph = SampleGraph(40, 17);
  RouteEngine engine(graph, kParams);
  for (const std::size_t landmarks : {std::size_t{0}, std::size_t{6}}) {
    if (landmarks != 0) engine.PrepareLandmarks(landmarks);
    const std::string bytes = engine.SnapshotBytes();
    auto loaded = RouteEngine::LoadSnapshot(AsBytes(bytes));
    ASSERT_TRUE(loaded.ok()) << loaded.error().Render();
    const RouteEngine& booted = loaded.value();
    // Canonical format: re-serializing the loaded engine reproduces the
    // input bytes exactly.
    EXPECT_EQ(booted.SnapshotBytes(), bytes);
    EXPECT_EQ(booted.node_count(), engine.node_count());
    EXPECT_EQ(booted.landmark_count(), landmarks);
  }
}

TEST(SnapshotTest, BootedEngineRoutesBitwiseIdentically) {
  const RiskGraph graph = SampleGraph(50, 23);
  RouteEngine engine(graph, kParams);
  engine.PrepareLandmarks(8);
  const std::string bytes = engine.SnapshotBytes();
  auto loaded = RouteEngine::LoadSnapshot(AsBytes(bytes));
  ASSERT_TRUE(loaded.ok()) << loaded.error().Render();
  const RouteEngine& booted = loaded.value();

  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    EXPECT_EQ(booted.node_name(v), engine.node_name(v));
    EXPECT_EQ(booted.NodeScore(v), engine.NodeScore(v));
    EXPECT_EQ(booted.impact_fraction(v), engine.impact_fraction(v));
  }
  std::vector<std::size_t> nodes(graph.node_count());
  std::iota(nodes.begin(), nodes.end(), std::size_t{0});
  const auto ref = engine.ComputeRatios(nodes, nodes);
  const auto got = booted.ComputeRatios(nodes, nodes);
  EXPECT_EQ(ref.risk_reduction_ratio, got.risk_reduction_ratio);
  EXPECT_EQ(ref.distance_increase_ratio, got.distance_increase_ratio);
  EXPECT_EQ(ref.pair_count, got.pair_count);

  DijkstraWorkspace ws_a;
  DijkstraWorkspace ws_b;
  engine.Run(ws_a, 0, engine.Alpha(0, 31), 31);
  booted.Run(ws_b, 0, booted.Alpha(0, 31), 31);
  EXPECT_EQ(ws_a.DistanceTo(31), ws_b.DistanceTo(31));
}

TEST(SnapshotTest, BootedEngineServesTheSameParetoFront) {
  // The SLA picker (route --latency-budget) runs on whatever engine the
  // service booted, so a snapshot boot must reproduce the live front.
  const RiskGraph graph = SampleGraph(40, 31);
  const RouteEngine live(graph, kParams);
  auto loaded = RouteEngine::LoadSnapshot(AsBytes(live.SnapshotBytes()));
  ASSERT_TRUE(loaded.ok()) << loaded.error().Render();
  const core::MultiObjectiveRouter from_live(live);
  const core::MultiObjectiveRouter from_snapshot(loaded.value());
  for (const std::size_t dst : {std::size_t{13}, std::size_t{39}}) {
    const auto want = from_live.ParetoFront(0, dst);
    const auto got = from_snapshot.ParetoFront(0, dst);
    ASSERT_FALSE(want.empty());
    ASSERT_EQ(got.size(), want.size()) << dst;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].path, want[k].path) << dst << " #" << k;
      EXPECT_EQ(got[k].miles, want[k].miles);
      EXPECT_EQ(got[k].bit_risk_miles, want[k].bit_risk_miles);
      EXPECT_EQ(got[k].latency_ms, want[k].latency_ms);
    }
  }
}

TEST(SnapshotTest, ForecastRisksSurviveTheRoundTrip) {
  const RiskGraph graph = SampleGraph(30, 29);
  RouteEngine engine(graph, kParams);
  std::vector<double> risks(graph.node_count());
  for (std::size_t i = 0; i < risks.size(); ++i) {
    risks[i] = static_cast<double>(i) * 0.75;
  }
  engine.SetForecastRisks(risks);
  const std::string bytes = engine.SnapshotBytes();
  auto loaded = RouteEngine::LoadSnapshot(AsBytes(bytes));
  ASSERT_TRUE(loaded.ok()) << loaded.error().Render();
  EXPECT_EQ(loaded.value().SnapshotBytes(), bytes);
  for (std::size_t v = 0; v < graph.node_count(); ++v) {
    EXPECT_EQ(loaded.value().NodeScore(v), engine.NodeScore(v));
  }
}

TEST(SnapshotTest, FileRoundTripMatchesInMemoryBytes) {
  const RiskGraph graph = SampleGraph(25, 31);
  RouteEngine engine(graph, kParams);
  engine.PrepareLandmarks(4);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "riskroute_snapshot_test.rre";
  engine.SaveSnapshotFile(path.string());
  auto loaded = RouteEngine::LoadSnapshotFile(path.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error().Render();
  EXPECT_EQ(loaded.value().SnapshotBytes(), engine.SnapshotBytes());
  std::ifstream in(path, std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, engine.SnapshotBytes());
  std::filesystem::remove(path);
}

TEST(SnapshotTest, HostileBytesSurfaceAsDiagnostics) {
  const RiskGraph graph = SampleGraph(20, 37);
  RouteEngine engine(graph, kParams);
  engine.PrepareLandmarks(3);
  const std::string good = engine.SnapshotBytes();

  const auto expect_rejected = [](const std::string& bytes,
                                  const char* label) {
    auto result = RouteEngine::LoadSnapshot(AsBytes(bytes));
    EXPECT_FALSE(result.ok()) << label;
    if (!result.ok()) {
      EXPECT_FALSE(result.error().message.empty()) << label;
    }
  };

  expect_rejected("", "empty input");
  expect_rejected(good.substr(0, 7), "shorter than the magic");
  expect_rejected(good.substr(0, 96), "header-only prefix");
  expect_rejected(good.substr(0, good.size() / 2), "truncated payload");
  expect_rejected(good + std::string(64, '\0'), "trailing bytes");

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  expect_rejected(bad_magic, "corrupted magic");

  std::string bad_version = good;
  bad_version[8] = static_cast<char>(bad_version[8] + 1);
  expect_rejected(bad_version, "unknown version");

  // Any payload bit-flip must trip the checksum (or a structural check —
  // either way the loader rejects). Sweep a spread of offsets.
  for (std::size_t offset = 80; offset < good.size();
       offset += good.size() / 13 + 1) {
    std::string flipped = good;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x10);
    auto result = RouteEngine::LoadSnapshot(AsBytes(flipped));
    EXPECT_FALSE(result.ok()) << "bit flip at offset " << offset;
  }
}

TEST(SnapshotTest, ChecksumIsDeterministicAndPositionSensitive) {
  const std::string payload = "riskroute snapshot checksum probe";
  const auto bytes = AsBytes(payload);
  const std::uint64_t a = RouteEngine::SnapshotChecksum(bytes);
  const std::uint64_t b = RouteEngine::SnapshotChecksum(bytes);
  EXPECT_EQ(a, b);
  // Seed-chaining: hashing in two runs equals hashing the concatenation.
  const std::uint64_t head =
      RouteEngine::SnapshotChecksum(bytes.subspan(0, 10));
  EXPECT_EQ(RouteEngine::SnapshotChecksum(bytes.subspan(10), head), a);
  // Different content, different sum (FNV-1a mixes every byte).
  std::string swapped = payload;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(RouteEngine::SnapshotChecksum(AsBytes(swapped)), a);
}

TEST(SnapshotTest, EmptyGraphRoundTrips) {
  const RiskGraph graph;
  RouteEngine engine(graph, kParams);
  const std::string bytes = engine.SnapshotBytes();
  auto loaded = RouteEngine::LoadSnapshot(AsBytes(bytes));
  ASSERT_TRUE(loaded.ok()) << loaded.error().Render();
  EXPECT_EQ(loaded.value().node_count(), 0u);
  EXPECT_EQ(loaded.value().SnapshotBytes(), bytes);
}

}  // namespace
}  // namespace riskroute
