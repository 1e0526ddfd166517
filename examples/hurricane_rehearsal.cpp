// Hurricane rehearsal: replay a historical storm's advisory feed against a
// network and watch RiskRoute's preemptive rerouting respond tick by tick
// — the operational workflow the paper motivates with the by-hand reroutes
// carriers performed before Hurricane Sandy (its Section 1).
//
//   $ ./hurricane_rehearsal [network] [storm]
//
// network defaults to Level3; storm is one of IRENE, KATRINA, SANDY
// (default SANDY). The advisory text is parsed with the same NLP path the
// paper describes in Section 4.4.
#include <cstdio>
#include <string>

#include "api/api.h"

using namespace riskroute;

namespace {

const forecast::StormTrack& TrackByName(const std::string& name) {
  if (name == "IRENE") return forecast::IreneTrack();
  if (name == "KATRINA") return forecast::KatrinaTrack();
  return forecast::SandyTrack();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string network_name = argc > 1 ? argv[1] : "Level3";
  const std::string storm_name =
      util::ToUpper(argc > 2 ? argv[2] : "SANDY");
  const forecast::StormTrack& track = TrackByName(storm_name);

  std::puts("Building the RiskRoute study...");
  const core::Study study = core::Study::Build();
  // Frozen once; each advisory only re-planes the forecast risks.
  core::RouteEngine engine(study.BuildGraphFor(network_name),
                           core::RiskParams{1e5, 1e3});
  const std::size_t n = engine.node_count();
  std::vector<std::size_t> everyone(n);
  for (std::size_t i = 0; i < n; ++i) everyone[i] = i;
  util::ThreadPool pool;

  std::printf("\nReplaying %s against %s (%zu advisories, parsed from "
              "NHC-format bulletins)\n\n",
              track.name.c_str(), network_name.c_str(), track.advisory_count);
  std::printf("%-32s %8s %8s %10s %10s\n", "Advisory time", "in-hurr",
              "in-trop", "risk-ratio", "dist-ratio");

  const auto texts = forecast::GenerateAdvisoryTexts(track);
  for (std::size_t a = 0; a < texts.size(); a += 4) {
    // Parse the advisory text exactly as an operator's tooling would.
    const forecast::Advisory advisory =
        forecast::ParseAdvisoryResult(texts[a]).ValueOrThrow();
    const forecast::ForecastRiskField field(advisory);

    std::size_t in_hurricane = 0, in_tropical = 0;
    std::vector<double> risks(n);
    for (std::size_t i = 0; i < n; ++i) {
      risks[i] = field.RiskAt(engine.location(i));
      const auto zone = forecast::ZoneAt(advisory, engine.location(i));
      if (zone == forecast::WindZone::kHurricane) ++in_hurricane;
      if (zone != forecast::WindZone::kNone) ++in_tropical;
    }
    engine.SetForecastRisks(risks);
    const core::RatioReport report =
        engine.ComputeRatios(everyone, everyone, &pool);
    std::printf("%-32s %8zu %8zu %10.3f %10.3f\n",
                advisory.time.ToString().c_str(), in_hurricane, in_tropical,
                report.risk_reduction_ratio, report.distance_increase_ratio);
  }

  // Final tally: the storm's whole footprint.
  const forecast::StormScope scope(forecast::GenerateAdvisories(track));
  const auto& network = study.corpus().network(study.NetworkIndex(network_name));
  std::printf(
      "\nStorm total: %zu of %zu PoPs saw hurricane-force winds, %zu saw "
      "tropical-storm-force winds.\n",
      scope.CountPopsInZone(network, forecast::WindZone::kHurricane),
      network.pop_count(),
      scope.CountPopsInZone(network, forecast::WindZone::kTropical));
  return 0;
}
