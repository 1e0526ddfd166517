// Natural-language parsing of NHC public advisory text (paper Section 4.4).
//
// The paper extracts, from each advisory's prose, the storm centre and the
// radii of tropical-storm-force and hurricane-force winds ("...THE CENTER
// OF HURRICANE IRENE WAS LOCATED NEAR LATITUDE 35.2 NORTH...LONGITUDE 76.4
// WEST... HURRICANE-FORCE WINDS EXTEND OUTWARD UP TO 90 MILES...").
// This parser tokenizes the ellipsis-delimited bulletin text and recovers
// the full Advisory struct. It is deliberately lenient about layout (real
// advisories vary) but strict about the fields the risk model needs, and
// it is hardened against hostile input: oversized bulletins, non-finite
// numbers, out-of-range coordinates and impossible timestamps all surface
// as structured ParseResult diagnostics (never UB or a foreign exception
// type).
#pragma once

#include <cstddef>
#include <string_view>

#include "forecast/advisory.h"
#include "util/parse_result.h"

namespace riskroute::forecast {

/// Defensive limits for untrusted bulletin text. Real NHC advisories are
/// a few KiB; the defaults leave two orders of magnitude of headroom
/// while keeping tokenization allocations bounded.
struct AdvisoryLimits {
  std::size_t max_bytes = 1 << 20;   // 1 MiB of bulletin text
  std::size_t max_tokens = 1 << 16;  // parsed word tokens
};

/// Parses one bulletin. Fails with kLimitExceeded past AdvisoryLimits,
/// kMissingField when a required field (storm name, centre coordinates,
/// tropical wind radius) is absent, and kBadValue when the centre is not
/// a valid latitude/longitude. Numeric side fields (advisory number,
/// motion, winds, timestamp) stay lenient: a malformed or implausible
/// value leaves the struct's default rather than failing the bulletin,
/// but never produces a non-finite number or an invalid civil time.
[[nodiscard]] util::ParseResult<Advisory> ParseAdvisoryResult(
    std::string_view text, const AdvisoryLimits& limits = {});

}  // namespace riskroute::forecast
