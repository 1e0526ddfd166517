// Shared scaffolding for the reproduction benches.
//
// Every bench binary (a) prints the rows/series of the paper table or
// figure it regenerates — these are the numbers EXPERIMENTS.md records —
// and (b) registers google-benchmark timings for the computational kernel
// behind that experiment. The full-scale Study (215,932 census blocks,
// 176k hazard events, 23 networks) is built once per process and shared.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "core/route_engine.h"
#include "core/study.h"
#include "obs/metrics.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace riskroute::bench {

/// The reference study (full paper-scale substrates). Built on first use.
inline const core::Study& SharedStudy() {
  static const core::Study study = core::Study::Build();
  return study;
}

/// Process-wide worker pool for the parallel sweeps.
inline util::ThreadPool& SharedPool() {
  static util::ThreadPool pool;
  return pool;
}

/// Eq 5 / Eq 6 ratios with every frozen PoP as both source and target —
/// the Table 2 per-network computation.
inline core::RatioReport IntradomainRatios(const core::RouteEngine& engine,
                                           util::ThreadPool* pool) {
  std::vector<std::size_t> everyone(engine.node_count());
  std::iota(everyone.begin(), everyone.end(), std::size_t{0});
  return engine.ComputeRatios(everyone, everyone, pool);
}

/// Prints a banner separating the reproduction output from benchmark noise.
inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Writes the obs:: metrics accumulated over the whole bench run to a JSON
/// sidecar: $RISKROUTE_METRICS_OUT if set (bench_compare.py points it next
/// to BENCH_perf.json), else "<binary>_metrics.json" beside the binary.
inline void WriteMetricsSidecar(const char* argv0) {
  const char* env = std::getenv("RISKROUTE_METRICS_OUT");
  const std::string path = (env != nullptr && *env != '\0')
                               ? std::string(env)
                               : std::string(argv0) + "_metrics.json";
  if (!obs::MetricsRegistry::Global().WriteJsonFile(path)) {
    std::fprintf(stderr, "warning: cannot write metrics sidecar %s\n",
                 path.c_str());
  }
}

/// Standard main: print the reproduction first, then run registered
/// google-benchmark timings, then drop the metrics sidecar.
#define RISKROUTE_BENCH_MAIN(title, reproduce_fn)              \
  int main(int argc, char** argv) {                            \
    ::riskroute::bench::PrintHeader(title);                    \
    reproduce_fn();                                            \
    ::benchmark::Initialize(&argc, argv);                      \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))  \
      return 1;                                                \
    ::benchmark::RunSpecifiedBenchmarks();                     \
    ::benchmark::Shutdown();                                   \
    ::riskroute::bench::WriteMetricsSidecar(argv[0]);          \
    return 0;                                                  \
  }

}  // namespace riskroute::bench
