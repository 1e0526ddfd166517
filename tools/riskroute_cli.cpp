// riskroute — command-line front end to the RiskRoute library.
//
//   riskroute route    --network Level3 --from "Houston, TX" --to "Boston, MA"
//   riskroute ratios   [--network NAME] [--lambda-h 1e5] [--lambda-f 1e3]
//   riskroute augment  --network Sprint [--links 5]
//   riskroute peering  --network Digex [--any-peer]
//   riskroute storm    --network Level3 --storm SANDY [--project 24]
//   riskroute stream   --network Level3 --storm IRENE [--step 1] [--top 3]
//   riskroute simulate --network Tinet [--trials 2000]
//   riskroute export   [--network NAME] [--format geojson|rrt]
//   riskroute ospf     --network Deutsche
//   riskroute freeze   --network Level3 --out level3.rre [--alt-landmarks K]
//   riskroute serve    --socket /tmp/rr.sock [--engine-snapshot level3.rre]
//   riskroute table3   [--scale X] [--seed S]
//
// Every subcommand runs against the deterministic reference study
// (override the corpus seed with --seed; grow the corpus with --scale).
// `freeze` serializes a prepared RouteEngine to a snapshot file, and
// route/ratios/ensemble/augment/serve accept --engine-snapshot FILE to
// boot from one without rebuilding the study. `serve` keeps the booted
// engine warm behind riskroute_serverd; query it with riskroute_client.
// Output goes to stdout; GeoJSON and .rrt exports print the document so
// it can be piped to a file.
//
// route/ratios/ensemble/augment are thin adapters over riskroute::api —
// a served response body is byte-identical to the subcommand's stdout.
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/api.h"
#include "bgp/path_vector.h"
#include "bgp/relationships.h"
#include "bgp/risk_selection.h"
#include "forecast/projection.h"
#include "hazard/synthesis.h"
#include "server/server.h"
#include "topology/generator.h"
#include "topology/geojson.h"
#include "topology/serialize.h"
#include "tools/args.h"
#include "util/strings.h"
#include "util/table.h"

namespace riskroute::cli {
namespace {

int Usage() {
  std::puts(
      "usage: riskroute <command> [options]\n"
      "\n"
      "commands:\n"
      "  route     --network N --from \"City, ST\" --to \"City, ST\"\n"
      "            [--lambda-h X] [--lambda-f X] [--latency-budget MS]\n"
      "            [--geojson] [--engine-snapshot FILE]\n"
      "  ratios    [--network N] [--lambda-h X] [--lambda-f X]\n"
      "            [--engine-snapshot FILE]\n"
      "  augment   --network N [--links K]\n"
      "  peering   --network N [--any-peer]\n"
      "  storm     --network N --storm IRENE|KATRINA|SANDY [--project H]\n"
      "  stream    --network N --storm IRENE|KATRINA|SANDY [--step K]\n"
      "            [--top L] [--engine-snapshot FILE]   (rolling re-route)\n"
      "  simulate  --network N [--trials T] [--lambda-h X]\n"
      "  ensemble  --network N [--scenarios K] [--ensemble-seed S]\n"
      "            [--month 1-12] [--top L] [--json] [--engine-snapshot FILE]\n"
      "            [--triage [--pilot P] [--audit-stride A] [--base-rate R]]\n"
      "            (--triage: surrogate-triaged importance sampling)\n"
      "  export    [--network N] [--format geojson|rrt]\n"
      "  ospf      --network N [--lambda-h X]\n"
      "  bgp       --dest N [--risk-aware]\n"
      "  freeze    --network N --out FILE [--alt-landmarks K] [--scale X]\n"
      "  serve     --socket PATH and/or --port P [--workers W] [--queue Q]\n"
      "            [--engine-snapshot FILE]   (riskroute_serverd daemon)\n"
      "  table3    [--scale X] [--seed S]   (corpus summary, Table 3 style)\n"
      "\n"
      "common options: --seed S (corpus seed), --blocks B (census blocks),\n"
      "                --scale X (corpus scale, 1 = paper corpus),\n"
      "                --threads T (worker pool size, 0 = hardware),\n"
      "                --alt-landmarks K (prepare K ALT landmarks, 0 = off),\n"
      "                --metrics-out FILE (dump obs:: metrics JSON on exit)");
  return 2;
}

/// Worker count for subcommands that parallelize (0 = hardware concurrency).
std::size_t PoolThreads(const Args& args) {
  return args.GetSize("threads", 0);
}

core::Study BuildStudy(const Args& args) {
  core::StudyOptions options;
  options.corpus_seed = args.GetSize("seed", 123);
  options.corpus_scale = args.GetDouble("scale", 1.0);
  options.census.block_count = args.GetSize("blocks", 215932);
  std::fprintf(stderr, "building study (seed %zu, %zu census blocks)...\n",
               static_cast<std::size_t>(options.corpus_seed),
               options.census.block_count);
  return core::Study::Build(options);
}

core::RiskParams ParamsFrom(const Args& args) {
  return core::RiskParams{args.GetDouble("lambda-h", 1e5),
                          args.GetDouble("lambda-f", 1e3)};
}

/// --alt-landmarks K: prepares (or, with K=0, clears) the engine's ALT
/// landmark tables. Absent flag = leave whatever the engine already has
/// (snapshots carry their landmarks).
void ApplyAltLandmarks(const Args& args, core::RouteEngine& engine) {
  if (!args.Has("alt-landmarks")) return;
  const std::size_t count = args.GetSize("alt-landmarks", 0);
  if (count == 0) {
    engine.ClearLandmarks();
  } else {
    engine.PrepareLandmarks(count);
  }
}

/// Boots a RouteEngine either from --engine-snapshot FILE or from the
/// study + --network graph. In snapshot mode `study`/`graph` stay empty
/// (no corpus is built) and the risk params come from the snapshot, not
/// the --lambda-* flags.
core::RouteEngine BootEngine(const Args& args,
                             std::optional<core::Study>& study,
                             std::optional<core::RiskGraph>& graph,
                             const char* default_network) {
  if (const auto snapshot = args.Get("engine-snapshot")) {
    std::fprintf(stderr, "booting engine from snapshot %s...\n",
                 snapshot->c_str());
    auto loaded = core::RouteEngine::LoadSnapshotFile(*snapshot);
    core::RouteEngine engine = std::move(loaded).ValueOrThrow();
    ApplyAltLandmarks(args, engine);
    return engine;
  }
  study.emplace(BuildStudy(args));
  graph.emplace(study->BuildGraphFor(args.GetOr("network", default_network)));
  core::RouteEngine engine(*graph, ParamsFrom(args));
  ApplyAltLandmarks(args, engine);
  return engine;
}

int CmdRoute(const Args& args) {
  std::optional<core::Study> study;
  std::optional<core::RiskGraph> graph;
  const api::Service service(BootEngine(args, study, graph, "Level3"));
  const core::RouteEngine& engine = service.engine();

  api::RouteRequest request;
  request.from = args.GetOr("from", "Houston, TX");
  request.to = args.GetOr("to", "Boston, MA");
  const api::RouteResponse response = service.Route(request);
  if (!response.connected) {
    std::fprintf(stderr, "PoPs are not connected\n");
    return 1;
  }
  std::fputs(response.body.c_str(), stdout);

  if (args.Has("latency-budget")) {
    // CLI-only extra outside the api::Service body: the SLA picker runs on
    // the service's engine, between the endpoints the response resolved.
    const double budget = args.GetDouble("latency-budget", 1e9);
    const core::MultiObjectiveRouter multi(engine);
    const auto pick = multi.MinRiskWithinLatency(
        response.riskroute_path.front(), response.riskroute_path.back(),
        budget);
    if (pick) {
      std::printf("%s: %.0f mi, %.0f bit-risk mi\n  ", "sla-pick ",
                  pick->miles, pick->bit_risk_miles);
      for (std::size_t i = 0; i < pick->path.size(); ++i) {
        std::printf("%s%s", engine.node_name(pick->path[i]).c_str(),
                    i + 1 == pick->path.size() ? "\n" : " -> ");
      }
      std::printf("  latency %.2f ms within budget %.2f ms\n",
                  pick->latency_ms, budget);
    } else {
      std::printf("no route fits the %.2f ms latency budget\n", budget);
    }
  }
  if (args.Has("geojson")) {
    if (!study) {
      throw InvalidArgument(
          "--geojson needs the study corpus; drop --engine-snapshot");
    }
    const auto& net = study->corpus().network(
        study->NetworkIndex(args.GetOr("network", "Level3")));
    std::puts(topology::PathToGeoJson(net, response.riskroute_path, "riskroute")
                  .c_str());
  }
  return 0;
}

int CmdRatios(const Args& args) {
  util::ThreadPool pool(PoolThreads(args));
  api::ServiceOptions service_options;
  service_options.pool = &pool;

  // Snapshot boot: the frozen engine is one network already; the Service
  // runs the Eq 5/6 sweep over every frozen node (bitwise what the study
  // path computes for that network, ALT landmarks and all) and its body
  // is the rendered single-row table.
  if (args.Has("engine-snapshot")) {
    std::optional<core::Study> study;
    std::optional<core::RiskGraph> graph;
    const api::Service service(BootEngine(args, study, graph, "Level3"),
                               service_options);
    api::RatiosRequest request;
    request.label = args.GetOr("network", "snapshot");
    std::fputs(service.Ratios(request).body.c_str(), stdout);
    return 0;
  }

  const core::Study study = BuildStudy(args);
  const core::RiskParams params = ParamsFrom(args);
  std::vector<std::string> names;
  if (const auto one = args.Get("network")) {
    names.push_back(*one);
  } else {
    for (const auto& net : study.corpus().networks()) {
      if (net.kind() == topology::NetworkKind::kTier1) {
        names.push_back(net.name());
      }
    }
  }
  // Multi-network mode: one Service per frozen network; the combined
  // table is CLI presentation (column widths span all rows, so the
  // per-network bodies cannot simply concatenate).
  util::Table table({"Network", "# PoPs", "Risk Reduction", "Distance Increase"});
  const std::size_t landmarks = args.GetSize("alt-landmarks", 0);
  for (const std::string& name : names) {
    const core::RiskGraph graph = study.BuildGraphFor(name);
    core::RouteEngine engine(graph, params);
    if (landmarks > 0) {
      // ALT path: same Eq 5/6 fold, per-pair goal-directed searches.
      engine.PrepareLandmarks(landmarks);
    }
    const api::Service service(std::move(engine), service_options);
    api::RatiosRequest request;
    request.label = name;
    const api::RatiosResponse response = service.Ratios(request);
    table.Add(name, response.pops, response.report.risk_reduction_ratio,
              response.report.distance_increase_ratio);
  }
  table.Render(std::cout);
  return 0;
}

int CmdAugment(const Args& args) {
  std::optional<core::Study> study;
  std::optional<core::RiskGraph> graph;
  util::ThreadPool pool(PoolThreads(args));
  api::ServiceOptions service_options;
  service_options.pool = &pool;
  const api::Service service(BootEngine(args, study, graph, "Sprint"),
                             service_options);
  api::ProvisionRequest request;
  request.links = args.GetSize("links", 5);
  std::fputs(service.Provision(request).body.c_str(), stdout);
  return 0;
}

int CmdPeering(const Args& args) {
  const core::Study study = BuildStudy(args);
  const std::string network = args.GetOr("network", "Digex");
  util::ThreadPool pool(PoolThreads(args));
  const core::MergedGraph merged = study.BuildMerged();
  const core::RouteEngine engine(merged.graph, ParamsFrom(args));
  const auto scope = args.Has("any-peer") ? provision::PeerScope::kAnyNetwork
                                          : provision::PeerScope::kTier1Only;
  const auto rec = provision::RecommendPeering(
      engine, merged, study.corpus(), study.NetworkIndex(network), 25.0,
      &pool, scope);
  if (rec.evaluations.empty()) {
    std::puts("no candidate peers (co-located, not already peered)");
    return 0;
  }
  for (const auto& eval : rec.evaluations) {
    std::printf("%-14s %2zu co-located PoPs -> %.2f%% bit-risk reduction\n",
                study.corpus().network(eval.peer.network).name().c_str(),
                eval.peer.pairs.size(),
                100 * (1 - eval.objective / rec.baseline_objective));
  }
  return 0;
}

int CmdStorm(const Args& args) {
  const core::Study study = BuildStudy(args);
  const std::string network = args.GetOr("network", "Level3");
  const std::string storm = util::ToUpper(args.GetOr("storm", "SANDY"));
  const forecast::StormTrack* track = &forecast::SandyTrack();
  if (storm == "IRENE") track = &forecast::IreneTrack();
  if (storm == "KATRINA") track = &forecast::KatrinaTrack();

  // Frozen once; each advisory only re-planes the forecast risks.
  core::RouteEngine engine(study.BuildGraphFor(network), ParamsFrom(args));
  const std::size_t n = engine.node_count();
  std::vector<std::size_t> everyone(n);
  for (std::size_t i = 0; i < n; ++i) everyone[i] = i;
  util::ThreadPool pool(PoolThreads(args));
  const double project_hours = args.GetDouble("project", 0.0);

  std::printf("%-30s %8s %10s\n", "advisory", "in-scope", "risk-ratio");
  const auto advisories = forecast::GenerateAdvisories(*track);
  for (std::size_t a = 0; a < advisories.size(); a += 4) {
    std::vector<double> risks(n);
    std::size_t in_scope = 0;
    if (project_hours > 0) {
      const forecast::ConeRiskField cone(advisories[a],
                                         {0.0, project_hours / 2, project_hours});
      for (std::size_t i = 0; i < n; ++i) {
        risks[i] = cone.RiskAt(engine.location(i));
        if (risks[i] > 0) ++in_scope;
      }
    } else {
      const forecast::ForecastRiskField field(advisories[a]);
      for (std::size_t i = 0; i < n; ++i) {
        risks[i] = field.RiskAt(engine.location(i));
        if (risks[i] > 0) ++in_scope;
      }
    }
    engine.SetForecastRisks(risks);
    const auto report = engine.ComputeRatios(everyone, everyone, &pool);
    std::printf("%-30s %8zu %10.3f\n",
                advisories[a].time.ToString().c_str(), in_scope,
                report.risk_reduction_ratio);
  }
  return 0;
}

/// Replays a storm's advisory bulletins through api::Service as one
/// rolling StreamAdvisory session. stdout is exactly the concatenation
/// of the served response bodies — the golden harness byte-pins it, so
/// boot/progress chatter stays on stderr.
int CmdStream(const Args& args) {
  const std::string storm = util::ToUpper(args.GetOr("storm", "SANDY"));
  const forecast::StormTrack* track = &forecast::SandyTrack();
  if (storm == "IRENE") track = &forecast::IreneTrack();
  if (storm == "KATRINA") track = &forecast::KatrinaTrack();

  std::optional<core::Study> study;
  std::optional<core::RiskGraph> graph;
  util::ThreadPool pool(PoolThreads(args));
  api::ServiceOptions service_options;
  service_options.pool = &pool;
  const api::Service service(BootEngine(args, study, graph, "Level3"),
                             service_options);

  const std::size_t step = args.GetSize("step", 1);
  if (step == 0) throw InvalidArgument("--step must be at least 1");
  const std::vector<std::string> texts =
      forecast::GenerateAdvisoryTexts(*track);
  std::fprintf(stderr, "streaming %s: %zu advisories, step %zu\n",
               storm.c_str(), texts.size(), step);
  for (std::size_t i = 0; i < texts.size(); i += step) {
    api::StreamAdvisoryRequest request;
    request.bulletin = texts[i];
    request.top = args.GetSize("top", 3);
    std::fputs(service.StreamAdvisory(request).body.c_str(), stdout);
  }
  return 0;
}

int CmdSimulate(const Args& args) {
  const core::Study study = BuildStudy(args);
  const std::string network = args.GetOr("network", "Tinet");
  const core::RiskGraph graph = study.BuildGraphFor(network);
  const core::RouteEngine engine(
      graph, core::RiskParams{args.GetDouble("lambda-h", 1e5), 0.0});
  const sim::TrafficMatrix traffic = sim::TrafficMatrix::Gravity(graph);
  util::ThreadPool pool(PoolThreads(args));
  sim::OutageSimOptions options;
  options.trials = args.GetSize("trials", 2000);
  const auto report = sim::RunOutageSimulation(
      engine, hazard::SynthesizeAllCatalogs(), traffic, options, &pool);
  std::printf(
      "trials %zu | transit hit: shortest %.3f%%, riskroute %.3f%% "
      "(ratio %.2f) | endpoint loss %.3f%%\n",
      report.trials, 100 * report.shortest_path_affected,
      100 * report.riskroute_affected, report.AffectedRatio(),
      100 * report.endpoint_loss);
  return 0;
}

int CmdEnsemble(const Args& args) {
  std::optional<core::Study> study;
  std::optional<core::RiskGraph> graph;
  util::ThreadPool pool(PoolThreads(args));
  api::ServiceOptions service_options;
  service_options.pool = &pool;
  const api::Service service(BootEngine(args, study, graph, "Tinet"),
                             service_options);

  api::EnsembleRequest request;
  request.scenarios = args.GetSize("scenarios", 256);
  // --ensemble-seed keys the Philox draws; --seed stays the corpus seed.
  request.seed = args.GetSize("ensemble-seed", 2026);
  request.month = static_cast<int>(args.GetSize("month", 0));
  request.top = args.GetSize("top", 10);
  request.json = args.Has("json");
  request.triage = args.Has("triage");
  request.pilot = args.GetSize("pilot", 96);
  request.audit_stride = args.GetSize("audit-stride", 64);
  // Quantized to ppm exactly as the wire codec carries it, so a served
  // triage body is byte-identical to this stdout.
  request.base_rate_ppm = static_cast<std::uint32_t>(
      std::llround(args.GetDouble("base-rate", 0.05) * 1e6));
  std::fputs(service.Ensemble(request).body.c_str(), stdout);
  return 0;
}

int CmdExport(const Args& args) {
  const core::Study study = BuildStudy(args);
  const std::string format = args.GetOr("format", "geojson");
  if (const auto name = args.Get("network")) {
    const auto& net = study.corpus().network(study.NetworkIndex(*name));
    if (format == "geojson") {
      const auto& field = study.hazard_field();
      std::puts(topology::NetworkToGeoJson(net, [&](std::size_t i) {
                  return field.RiskAt(net.pop(i).location);
                }).c_str());
    } else {
      topology::Corpus single;
      single.AddNetwork(net);
      std::puts(topology::CorpusToString(single).c_str());
    }
    return 0;
  }
  if (format == "geojson") {
    std::puts(topology::CorpusToGeoJson(study.corpus()).c_str());
  } else {
    std::puts(topology::CorpusToString(study.corpus()).c_str());
  }
  return 0;
}

int CmdBgp(const Args& args) {
  const core::Study study = BuildStudy(args);
  const std::string dest_name = args.GetOr("dest", "Level3");
  const std::size_t dest = study.NetworkIndex(dest_name);
  const auto graph = bgp::RelationshipGraph::FromCorpus(study.corpus());
  bgp::RoutingState state = bgp::RoutingState::Compute(graph, dest, 3);
  if (args.Has("risk-aware")) {
    const auto as_risk =
        bgp::AsRiskScores(study.corpus(), study.hazard_field());
    const std::size_t changed = bgp::ApplyRiskAwareSelection(state, as_risk);
    std::printf("risk-aware selection changed %zu primaries\n", changed);
  }
  std::printf("routes toward %s (policy: customer > peer > provider):\n",
              dest_name.c_str());
  for (std::size_t as = 0; as < graph.as_count(); ++as) {
    if (as == dest) continue;
    const bgp::RibEntry& rib = state.rib(as);
    std::printf("  %-14s ", study.corpus().network(as).name().c_str());
    if (!rib.best) {
      std::puts("(unreachable under policy)");
      continue;
    }
    for (std::size_t i = 0; i < rib.best->as_path.size(); ++i) {
      std::printf("%s%s",
                  study.corpus().network(rib.best->as_path[i]).name().c_str(),
                  i + 1 == rib.best->as_path.size() ? "" : " > ");
    }
    std::printf("   (+%zu alternates)\n", rib.alternates.size() - 1);
  }
  return 0;
}

int CmdFreeze(const Args& args) {
  const core::Study study = BuildStudy(args);
  const std::string network = args.GetOr("network", "Level3");
  const core::RiskGraph graph = study.BuildGraphFor(network);
  core::RouteEngine engine(graph, ParamsFrom(args));
  const std::size_t landmarks = args.GetSize("alt-landmarks", 8);
  if (landmarks > 0) engine.PrepareLandmarks(landmarks);

  const std::string out = args.GetOr("out", network + ".rre");
  const std::string bytes = engine.SnapshotBytes();
  engine.SaveSnapshotFile(out);
  const std::size_t edges =
      engine.node_count() == 0 ? 0 : engine.EdgeEnd(engine.node_count() - 1);
  std::printf("froze %s: %zu PoPs, %zu directed edges, %zu landmarks, "
              "%zu bytes -> %s\n",
              network.c_str(), engine.node_count(), edges,
              engine.landmark_count(), bytes.size(), out.c_str());
  return 0;
}

/// SIGINT/SIGTERM flag for `riskroute serve`.
volatile std::sig_atomic_t g_serve_stop = 0;

void HandleServeSignal(int) { g_serve_stop = 1; }

int CmdServe(const Args& args) {
  const std::string socket_path = args.GetOr("socket", "");
  const bool has_port = args.Has("port");
  if (socket_path.empty() && !has_port) {
    throw InvalidArgument("serve needs --socket PATH and/or --port P");
  }

  std::optional<core::Study> study;
  std::optional<core::RiskGraph> graph;
  util::ThreadPool pool(PoolThreads(args));
  api::ServiceOptions service_options;
  service_options.pool = &pool;
  const api::Service service(BootEngine(args, study, graph, "Level3"),
                             service_options);
  // The study corpus is only needed to freeze the engine; release it
  // before serving (snapshot boots never build one at all).
  graph.reset();
  study.reset();

  server::ServerOptions options;
  options.unix_path = socket_path;
  if (has_port) options.tcp_port = static_cast<int>(args.GetSize("port", 0));
  options.scheduler.workers = args.GetSize("workers", 1);
  options.scheduler.queue_capacity = args.GetSize("queue", 64);

  server::Server daemon(service, options);
  daemon.Start();
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  std::fprintf(stderr, "serving %zu PoPs", service.engine().node_count());
  if (!socket_path.empty()) {
    std::fprintf(stderr, " | unix %s", socket_path.c_str());
  }
  if (has_port) std::fprintf(stderr, " | tcp 127.0.0.1:%d", daemon.tcp_port());
  std::fprintf(stderr, " | %zu workers, queue %zu\n",
               args.GetSize("workers", 1), args.GetSize("queue", 64));

  while (g_serve_stop == 0 &&
         !daemon.WaitFor(std::chrono::milliseconds(100))) {
  }
  daemon.Stop();
  std::fprintf(stderr, "served %zu requests\n", daemon.requests_served());
  return 0;
}

int CmdTable3(const Args& args) {
  const double scale = args.GetDouble("scale", 1.0);
  const std::uint64_t seed = args.GetSize("seed", 123);
  const topology::Corpus corpus =
      scale > 1.0 ? topology::GenerateScaledCorpus(scale, seed)
                  : topology::GeneratePaperCorpus(seed);
  util::Table table(
      {"Network", "Kind", "PoPs", "Links", "Avg Degree", "Footprint mi"});
  std::size_t pops = 0;
  std::size_t links = 0;
  for (const topology::Network& net : corpus.networks()) {
    pops += net.pop_count();
    links += net.link_count();
    table.Add(net.name(),
              net.kind() == topology::NetworkKind::kTier1 ? "tier1"
                                                          : "regional",
              net.pop_count(), net.link_count(), net.AverageDegree(),
              net.FootprintMiles());
  }
  table.Render(std::cout);
  std::printf("\n%zu networks | %zu PoPs | %zu links (scale %g, seed %zu)\n",
              corpus.network_count(), pops, links, scale,
              static_cast<std::size_t>(seed));
  return 0;
}

int CmdOspf(const Args& args) {
  const core::Study study = BuildStudy(args);
  const std::string network = args.GetOr("network", "Deutsche");
  const core::RouteEngine engine(study.BuildGraphFor(network),
                                 ParamsFrom(args));
  const auto costs = core::ComputeOspfCosts(engine);
  std::fputs(core::RenderOspfConfig(engine, costs).c_str(), stdout);
  return 0;
}

int Dispatch(const std::string& command, const Args& args) {
  if (command == "route") return CmdRoute(args);
  if (command == "ratios") return CmdRatios(args);
  if (command == "augment") return CmdAugment(args);
  if (command == "peering") return CmdPeering(args);
  if (command == "storm") return CmdStorm(args);
  if (command == "stream") return CmdStream(args);
  if (command == "simulate") return CmdSimulate(args);
  if (command == "ensemble") return CmdEnsemble(args);
  if (command == "export") return CmdExport(args);
  if (command == "ospf") return CmdOspf(args);
  if (command == "bgp") return CmdBgp(args);
  if (command == "freeze") return CmdFreeze(args);
  if (command == "serve") return CmdServe(args);
  if (command == "table3") return CmdTable3(args);
  if (command == "help" || command == "--help") return Usage();
  std::fprintf(stderr, "unknown command: %s\n", command.c_str());
  return Usage();
}

/// Every flag any subcommand reads, declared as value-taking or boolean.
/// Args::Parse rejects typos ("--scenaros") and value flags with a
/// missing value ("--metrics-out --json") instead of guessing.
FlagRegistry CliFlags() {
  FlagRegistry flags;
  for (const char* value :
       {"network", "from", "to", "lambda-h", "lambda-f", "latency-budget",
        "links", "storm", "project", "trials", "scenarios", "ensemble-seed",
        "month", "top", "dest", "format", "seed", "blocks", "threads",
        "metrics-out", "scale", "alt-landmarks", "engine-snapshot", "out",
        "socket", "port", "workers", "queue", "step", "pilot", "audit-stride",
        "base-rate"}) {
    flags.Value(value);
  }
  for (const char* boolean :
       {"geojson", "any-peer", "risk-aware", "json", "triage"}) {
    flags.Bool(boolean);
  }
  return flags;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  auto parsed = Args::Parse(argc, argv, 2, CliFlags());
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.error().Render().c_str());
    return Usage();
  }
  const Args args = std::move(parsed).ValueOrThrow();
  const int rc = Dispatch(command, args);
  // Dump after the command so the export covers its whole run. The stable
  // section is bitwise independent of --threads; see tools/metrics_schema.json.
  if (const auto path = args.Get("metrics-out")) {
    if (!obs::MetricsRegistry::Global().WriteJsonFile(*path)) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   path->c_str());
      return rc == 0 ? 1 : rc;
    }
    std::fprintf(stderr, "metrics written to %s\n", path->c_str());
  }
  return rc;
}

}  // namespace
}  // namespace riskroute::cli

int main(int argc, char** argv) {
  try {
    return riskroute::cli::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
