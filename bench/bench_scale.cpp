// Continental-scale routing benchmarks: the ALT (A*, landmarks, triangle
// inequality) goal-directed path against the legacy full-Dijkstra sweeps,
// on a corpus an order of magnitude past the paper's 23 networks
// (topology::GenerateScaledCorpus). tools/bench_compare.py runs the
// BM_ScaleManyToMany* pair and gates the speedup (floor 3x) in
// BENCH_perf.json; the snapshot benches track the freeze/boot cost of
// RouteEngine::SaveSnapshot / LoadSnapshot at the same scale.
//
// The graph here is topology-only: every PoP of the scaled corpus in one
// flat RiskGraph (intra-network links at line-of-sight mileage, one
// gateway link per corpus peering), with Philox-keyed synthetic risks.
// The hazard/census stack is deliberately not built — these benches
// measure routing, not KDE evaluation.
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/risk_graph.h"
#include "core/route_engine.h"
#include "geo/distance.h"
#include "topology/generator.h"
#include "util/philox.h"

namespace {

using namespace riskroute;

constexpr double kScale = 7.0;
constexpr std::uint64_t kSeed = 123;
constexpr std::size_t kLandmarks = 16;
constexpr core::RiskParams kParams{1e5, 1e3};

core::RiskGraph BuildScaledGraph(const topology::Corpus& corpus) {
  core::RiskGraph graph;
  std::vector<std::size_t> base(corpus.network_count());
  util::PhiloxRng rng(kSeed, 0xA17);
  for (std::size_t n = 0; n < corpus.network_count(); ++n) {
    const topology::Network& net = corpus.network(n);
    base[n] = graph.node_count();
    for (const topology::Pop& pop : net.pops()) {
      core::RiskNode node;
      node.name = pop.name;
      node.location = pop.location;
      node.impact_fraction = 0.5 + 0.5 * rng.NextUniform();
      node.historical_risk = rng.NextUniform();
      graph.AddNode(std::move(node));
    }
  }
  std::vector<core::WeightedLink> links;
  for (std::size_t n = 0; n < corpus.network_count(); ++n) {
    const topology::Network& net = corpus.network(n);
    for (const topology::Link& link : net.links()) {
      links.push_back({base[n] + link.a, base[n] + link.b,
                       geo::GreatCircleMiles(net.pop(link.a).location,
                                             net.pop(link.b).location)});
    }
  }
  // One gateway link per AS peering so the merged graph is connected:
  // nearest PoP pair found with two linear scans.
  for (const topology::Peering& peering : corpus.peerings()) {
    const topology::Network& na = corpus.network(peering.a);
    const topology::Network& nb = corpus.network(peering.b);
    const std::size_t ib = nb.NearestPop(na.pop(0).location);
    const std::size_t ia = na.NearestPop(nb.pop(ib).location);
    links.push_back({base[peering.a] + ia, base[peering.b] + ib,
                     geo::GreatCircleMiles(na.pop(ia).location,
                                           nb.pop(ib).location)});
  }
  graph.AddEdgesUnchecked(links);
  return graph;
}

/// Built once per process: the scaled corpus, its flat graph, and two
/// frozen engines over it — one bare (full-Dijkstra sweeps), one with the
/// ALT landmark tables prepared.
struct ScaleFixture {
  topology::Corpus corpus;
  core::RiskGraph graph;
  core::RouteEngine dijkstra_engine;
  core::RouteEngine alt_engine;
  std::vector<std::size_t> sources;
  std::vector<std::size_t> targets;

  ScaleFixture()
      : corpus(topology::GenerateScaledCorpus(kScale, kSeed)),
        graph(BuildScaledGraph(corpus)),
        dijkstra_engine(graph, kParams),
        alt_engine(graph, kParams) {
    alt_engine.PrepareLandmarks(kLandmarks);
    const std::size_t n = graph.node_count();
    for (std::size_t i = 0; i < 16; ++i) sources.push_back(i * n / 16);
    for (std::size_t i = 0; i < 2; ++i) targets.push_back((8 * i + 5) * n / 16);
  }
};

const ScaleFixture& Fixture() {
  static const ScaleFixture fixture;
  return fixture;
}

// ---------------------------------------------------------------------------
// Targeted many-to-many distances: 16 sources x 2 targets — the sparse
// target sets ALT exists for. The legacy side runs one full Dijkstra per
// source; the ALT side runs one goal-directed search per pair. Identical
// PairMatrix bitwise (asserted in tests/scale_test.cpp); only the wall
// clock differs.

void BM_ScaleManyToManyDijkstra(benchmark::State& state) {
  const ScaleFixture& f = Fixture();
  util::ThreadPool* pool = &bench::SharedPool();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.dijkstra_engine.ManyToMany(
        f.sources, f.targets, core::RouteMetric::kDistance, pool));
  }
}
BENCHMARK(BM_ScaleManyToManyDijkstra)->Unit(benchmark::kMillisecond);

void BM_ScaleManyToManyAlt(benchmark::State& state) {
  const ScaleFixture& f = Fixture();
  util::ThreadPool* pool = &bench::SharedPool();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.alt_engine.ManyToMany(
        f.sources, f.targets, core::RouteMetric::kDistance, pool));
  }
}
BENCHMARK(BM_ScaleManyToManyAlt)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Snapshot freeze/boot cost at scale (not a gated pair; tracked for the
// EXPERIMENTS.md freeze -> boot recipe).

void BM_ScaleSnapshotSave(benchmark::State& state) {
  const ScaleFixture& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.alt_engine.SnapshotBytes());
  }
}
BENCHMARK(BM_ScaleSnapshotSave)->Unit(benchmark::kMillisecond);

void BM_ScaleSnapshotLoad(benchmark::State& state) {
  const ScaleFixture& f = Fixture();
  const std::string bytes = f.alt_engine.SnapshotBytes();
  const std::span<const std::uint8_t> span(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  for (auto _ : state) {
    auto engine = core::RouteEngine::LoadSnapshot(span);
    benchmark::DoNotOptimize(engine);
  }
}
BENCHMARK(BM_ScaleSnapshotLoad)->Unit(benchmark::kMillisecond);

void Reproduce() {
  const ScaleFixture& f = Fixture();
  std::size_t pops = 0;
  std::size_t links = 0;
  for (const topology::Network& net : f.corpus.networks()) {
    pops += net.pop_count();
    links += net.link_count();
  }
  std::printf("scaled corpus (scale %g, seed %zu): %zu networks, %zu PoPs, "
              "%zu links\n",
              kScale, static_cast<std::size_t>(kSeed),
              f.corpus.network_count(), pops, links);
  std::printf("flat graph: %zu nodes | engine landmarks: %zu | snapshot: "
              "%zu bytes\n",
              f.graph.node_count(), f.alt_engine.landmark_count(),
              f.alt_engine.SnapshotBytes().size());
  std::printf("many-to-many sweep: %zu sources x %zu targets\n",
              f.sources.size(), f.targets.size());
}

}  // namespace

RISKROUTE_BENCH_MAIN("Continental-scale ALT routing + snapshots", Reproduce)
