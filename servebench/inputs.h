// Seeded request generators for the served benchmark.
//
// Every request stream is a pure function of (workload seed, frozen
// engine): the daemon only ever sees the generated wire requests. Each
// generator draws from its own Philox stream, so adding a draw to one
// generator never shifts another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/route_engine.h"
#include "sim/ensemble.h"

namespace servebench {

/// One point-to-point route query between uniquely named PoPs.
struct RoutePair {
  std::string from;
  std::string to;
  bool local = false;  // a few hops apart (true) or cross-country (false)
};

/// `count` pairs, exactly half local (2-4 hops apart) and half
/// cross-country (at least kCrossCountryMiles apart), in a seeded
/// shuffled order. Both endpoints are in one connected component and
/// carry names no other PoP shares, so every request resolves to one PoP
/// and routes.
inline constexpr double kCrossCountryMiles = 1500.0;
[[nodiscard]] std::vector<RoutePair> GenerateRoutePairs(
    const riskroute::core::RouteEngine& engine, std::uint64_t seed,
    std::size_t count);

/// The storm-replay plan: per storm (Irene, Katrina, Sandy — the order of
/// forecast::AllTracks), its full bulletin series, and per cycle the
/// seeded order the three storms are replayed in.
struct StormPlan {
  std::vector<std::vector<std::string>> bulletins;  // per storm
  std::uint64_t seed = 0;

  /// Storm order of cycle `cycle` (a seeded permutation of 0..2).
  [[nodiscard]] std::vector<std::size_t> CycleOrder(std::uint64_t cycle) const;
};
[[nodiscard]] StormPlan GenerateStormPlan(std::uint64_t seed);

/// Flattened storm request stream: request k of the replay. The first
/// advisory of every storm visit carries reset = true.
struct StormRequest {
  std::size_t storm = 0;
  std::size_t position = 0;  // index into plan.bulletins[storm]
  bool reset = false;
};
/// Requests [first, first + count) of the plan's endless cycle sequence.
[[nodiscard]] std::vector<StormRequest> StormRequests(const StormPlan& plan,
                                                      std::size_t first,
                                                      std::size_t count);

/// The four ensemble option sets: one month from each meteorological
/// season (January, April, July, October), each with its own Philox key.
/// They are fixed, so every seed replays the same what-ifs and only the
/// order they arrive in changes.
[[nodiscard]] std::vector<riskroute::sim::EnsembleOptions>
EnsembleOptionSets(std::size_t scenarios);

/// Option-set index of requests [first, first + count). Each block of 16
/// requests holds every set 4 times in a seeded order, so consecutive
/// requests share an engine about a fifth of the time.
[[nodiscard]] std::vector<std::size_t> EnsembleSequence(std::uint64_t seed,
                                                        std::size_t first,
                                                        std::size_t count);

/// Self-test of the generators: the same seed reproduces every stream
/// exactly and `seed + 1` changes each of them. Returns an empty string on
/// success, else what failed.
[[nodiscard]] std::string SelfTest(const riskroute::core::RouteEngine& engine,
                                   std::uint64_t seed);

}  // namespace servebench
