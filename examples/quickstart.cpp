// Quickstart: assemble the study substrates, route one PoP pair with and
// without risk awareness, and compute a network-wide ratio report.
//
//   $ ./quickstart [network] [src_pop_name] [dst_pop_name]
//
// Defaults to Teliasonera, its first two PoPs if names are not given.
#include <cstdio>
#include <iostream>
#include <string>

#include "api/api.h"

using namespace riskroute;

namespace {

void PrintRoute(const core::RouteEngine& engine, const char* label,
                const core::Path& path, const core::PathMetrics& metrics) {
  std::printf("%s: %.0f miles, %.0f bit-risk miles\n  ", label,
              metrics.miles, metrics.bit_risk_miles);
  for (std::size_t i = 0; i < path.size(); ++i) {
    std::printf("%s%s", engine.node_name(path[i]).c_str(),
                i + 1 == path.size() ? "\n" : " -> ");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string network_name = argc > 1 ? argv[1] : "Teliasonera";

  std::puts("Building the RiskRoute study (synthetic corpus, census,");
  std::puts("hazard catalogs, KDE risk field)...");
  const core::Study study = core::Study::Build();

  const core::RiskGraph graph = study.BuildGraphFor(network_name);
  std::printf("\nNetwork %s: %zu PoPs, %zu directed edge entries\n",
              network_name.c_str(), graph.node_count(),
              graph.directed_edge_count());

  // Pick endpoints: arguments by name, or the geographically most distant
  // PoP pair (the interesting case for rerouting).
  std::size_t src = 0, dst = 1;
  if (argc > 3) {
    bool found_src = false, found_dst = false;
    for (std::size_t i = 0; i < graph.node_count(); ++i) {
      if (graph.node(i).name == argv[2]) { src = i; found_src = true; }
      if (graph.node(i).name == argv[3]) { dst = i; found_dst = true; }
    }
    if (!found_src || !found_dst) {
      std::fprintf(stderr, "PoP name not found in %s\n", network_name.c_str());
      return 1;
    }
  } else {
    double best = 0.0;
    for (std::size_t i = 0; i < graph.node_count(); ++i) {
      for (std::size_t j = i + 1; j < graph.node_count(); ++j) {
        const double miles = geo::GreatCircleMiles(graph.node(i).location,
                                                   graph.node(j).location);
        if (miles > best) { best = miles; src = i; dst = j; }
      }
    }
  }

  // Freeze once into the typed api layer — the same riskroute::api::Service
  // the CLI subcommands and riskroute_serverd answer from — and route on
  // its engine: alpha = 0 is the distance metric, alpha_ij the Eq 1 one.
  const api::Service service(
      core::RouteEngine(graph, core::RiskParams{1e5, 1e3}));
  const core::RouteEngine& engine = service.engine();
  std::printf("\nRouting %s -> %s (lambda_h = 1e5, lambda_f = 1e3):\n\n",
              engine.node_name(src).c_str(), engine.node_name(dst).c_str());
  const auto shortest = engine.FindPath(src, dst, 0.0);
  const auto risk_aware = engine.FindPath(src, dst, engine.Alpha(src, dst));
  if (!shortest || !risk_aware) {
    std::fprintf(stderr, "PoPs are not connected\n");
    return 1;
  }
  const core::PathMetrics shortest_metrics = engine.Measure(*shortest);
  const core::PathMetrics risk_metrics = engine.Measure(*risk_aware);
  PrintRoute(engine, "Geographic shortest path", *shortest, shortest_metrics);
  std::printf("\n");
  PrintRoute(engine, "RiskRoute (min bit-risk) ", *risk_aware, risk_metrics);

  std::printf("\nBit-risk saved: %.1f%%, extra distance paid: %.1f%%\n",
              100.0 * (1.0 - risk_metrics.bit_risk_miles /
                                 shortest_metrics.bit_risk_miles),
              100.0 * (risk_metrics.miles / shortest_metrics.miles - 1.0));

  // Network-wide sweep: this body is byte-identical to `riskroute ratios`.
  api::RatiosRequest ratios_request;
  ratios_request.label = network_name;
  const api::RatiosResponse ratios = service.Ratios(ratios_request);
  std::printf("\nNetwork-wide (all %zu PoPs, Eq 5/6 over every pair):\n%s",
              ratios.pops, ratios.body.c_str());
  return 0;
}
