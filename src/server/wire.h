// Wire protocol of riskroute_serverd: compact length-prefixed binary
// frames with versioned framing, decoded through the same ParseResult
// discipline as every other untrusted-input boundary (PR 5).
//
// Frame layout (all integers little-endian, no padding):
//
//   offset  size  field
//   0       4     magic "RRW1"
//   4       2     version (kWireVersion)
//   6       2     kind (FrameKind)
//   8       8     request id (echoed verbatim in the response)
//   16      4     payload length
//   20      ...   payload (kind-specific)
//
// Request payloads open with a u32 deadline in milliseconds (0 = none),
// then the kind's fields in fixed order. Strings are u16 length + raw
// bytes. Response payloads are a u16 status followed by the body bytes.
//
// The encoding is canonical: fixed field order, no optional fields, no
// trailing bytes, booleans restricted to 0/1, every numeric field
// validated against its defensive limit on decode. An accepted frame
// therefore re-encodes to the exact input bytes — the round-trip oracle
// fuzz/harness_wire.cpp enforces. Decoders never throw on hostile bytes;
// rejects come back as ParseDiagnostics and are counted under
// `server.wire.rejects.<kind>`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "api/service.h"
#include "util/parse_result.h"

namespace riskroute::server::wire {

inline constexpr std::uint8_t kMagic[4] = {'R', 'R', 'W', '1'};
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 20;

/// Message kinds. Requests are < 100; kResponse answers every request.
enum class FrameKind : std::uint16_t {
  kRouteRequest = 1,
  kRatiosRequest = 2,
  kEnsembleRequest = 3,
  kProvisionRequest = 4,
  // Testing/ops aid: the server sleeps delay_ms then answers
  // "pong" — the knob the backpressure and deadline tests turn.
  kPingRequest = 5,
  kShutdownRequest = 6,
  // Rolling incremental re-route: one advisory bulletin per frame
  // (existing kind values are frozen — corpus files carry them).
  kStreamAdvisory = 7,
  // Surrogate-triaged ensemble: the kEnsembleRequest fields plus the
  // integer triage knobs (pilot, audit_stride, base_rate in ppm). A new
  // kind rather than new fields on kind 3 — kind 3's byte layout is
  // frozen by the canonical corpus.
  kEnsembleTriageRequest = 8,
  kResponse = 100,
};

/// Response status. kOk carries the query body; every other status
/// carries a short diagnostic line.
enum class Status : std::uint16_t {
  kOk = 0,
  kBadRequest = 1,        // undecodable payload, unknown PoP, bad field
  kOverloaded = 2,        // scheduler queue full — retry later
  kDeadlineExceeded = 3,  // expired while waiting for a slot
  kInternal = 4,          // handler threw something unexpected
  kShuttingDown = 5,      // server stopping; request was not executed
};

[[nodiscard]] constexpr const char* ToString(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kBadRequest: return "bad_request";
    case Status::kOverloaded: return "overloaded";
    case Status::kDeadlineExceeded: return "deadline_exceeded";
    case Status::kInternal: return "internal";
    case Status::kShuttingDown: return "shutting_down";
  }
  return "unknown";
}

/// Defensive decode limits. Request-side callers keep the defaults; the
/// client raises max_payload for responses (ensemble bodies are large).
struct WireLimits {
  std::uint32_t max_payload = 64 * 1024;
  std::uint16_t max_string_bytes = 256;
  std::uint32_t max_scenarios = 1u << 20;
  std::uint32_t max_top = 10'000;
  std::uint32_t max_audit_stride = 1u << 20;
  std::uint32_t max_links = 64;
  std::uint32_t max_ping_delay_ms = 60'000;
  std::uint32_t max_deadline_ms = 3'600'000;
  /// Advisory bulletins are prose, not names: they get their own cap
  /// (real NHC advisories are a few KiB) instead of max_string_bytes.
  std::uint32_t max_bulletin_bytes = 32 * 1024;
};

/// Client-side limits: same field caps, room for large response bodies.
[[nodiscard]] inline WireLimits ResponseLimits() {
  WireLimits limits;
  limits.max_payload = 64u * 1024 * 1024;
  return limits;
}

/// A decoded request of any kind; `kind` selects which sub-request is
/// meaningful. Unused sub-requests keep their defaults so re-encoding a
/// decoded frame is well defined.
struct Request {
  FrameKind kind = FrameKind::kPingRequest;
  std::uint64_t id = 0;
  std::uint32_t deadline_ms = 0;  // 0 = no deadline
  api::RouteRequest route;
  api::RatiosRequest ratios;
  api::EnsembleRequest ensemble;
  api::ProvisionRequest provision;
  api::StreamAdvisoryRequest stream;
  std::uint32_t ping_delay_ms = 0;
};

/// A decoded response frame.
struct Response {
  std::uint64_t id = 0;
  Status status = Status::kOk;
  std::string body;
};

/// Validated frame header (magic and version already checked).
struct FrameHeader {
  FrameKind kind = FrameKind::kPingRequest;
  std::uint64_t id = 0;
  std::uint32_t payload_len = 0;
};

// --- Encoding (always canonical) ---

[[nodiscard]] std::string EncodeRequest(const Request& request);
[[nodiscard]] std::string EncodeResponse(std::uint64_t id, Status status,
                                         std::string_view body);

// --- Decoding (ParseResult; never throws on hostile bytes) ---

/// Header of a frame whose first kFrameHeaderBytes bytes are available.
/// Rejects bad magic/version/kind and payload lengths over the limit.
[[nodiscard]] util::ParseResult<FrameHeader> DecodeFrameHeader(
    std::span<const std::uint8_t> bytes, const WireLimits& limits);

/// Payload of a request frame (the bytes after the header, exactly
/// header.payload_len of them).
[[nodiscard]] util::ParseResult<Request> DecodeRequestPayload(
    const FrameHeader& header, std::span<const std::uint8_t> payload,
    const WireLimits& limits);

/// Payload of a response frame.
[[nodiscard]] util::ParseResult<Response> DecodeResponsePayload(
    const FrameHeader& header, std::span<const std::uint8_t> payload,
    const WireLimits& limits);

/// One whole frame that must span `bytes` exactly (no trailing bytes) —
/// the single-shot entry point the fuzz harness drives.
struct Frame {
  FrameHeader header;
  std::string payload;
};
[[nodiscard]] util::ParseResult<Frame> DecodeSingleFrame(
    std::span<const std::uint8_t> bytes, const WireLimits& limits);

/// Incremental frame assembly for a connection's read loop. Append raw
/// socket bytes, then Poll until it returns no frame. A diagnostic from
/// Poll is fatal for the connection (framing is unrecoverable once the
/// byte stream desynchronizes).
class FrameAssembler {
 public:
  explicit FrameAssembler(const WireLimits& limits) : limits_(limits) {}

  void Append(const char* data, std::size_t size) {
    buffer_.append(data, size);
  }

  /// nullopt = need more bytes; a value = one complete frame consumed
  /// from the buffer; a diagnostic = the stream is corrupt.
  [[nodiscard]] util::ParseResult<std::optional<Frame>> Poll();

  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  WireLimits limits_;
  std::string buffer_;
};

}  // namespace riskroute::server::wire
