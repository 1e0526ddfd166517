#include "server/wire.h"

#include <cstring>

#include "obs/metrics.h"

namespace riskroute::server::wire {
namespace {

using util::ParseErrorKind;

void CountReject(ParseErrorKind kind) {
  if (!obs::Enabled()) return;
  std::string name = "server.wire.rejects.";
  name += util::ToString(kind);
  obs::MetricsRegistry::Global().GetCounter(name).Add();
}

void CountAccepted() {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry::Global().GetCounter("server.wire.accepted").Add();
}

template <typename T>
util::ParseResult<T> Reject(ParseErrorKind kind, std::string message,
                            std::size_t byte_offset = 0) {
  CountReject(kind);
  return util::ParseResult<T>::Failure(kind, std::move(message), byte_offset);
}

// --- Little-endian append helpers ---

void PutU16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutString(std::string& out, std::string_view s) {
  PutU16(out, static_cast<std::uint16_t>(s.size()));
  out.append(s.data(), s.size());
}

/// Bounded little-endian reader over a payload span. Every Read* returns
/// false once the payload is exhausted; the caller turns that into one
/// structured "truncated payload" diagnostic.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ReadU8(std::uint8_t& v) {
    if (pos_ + 1 > bytes_.size()) return false;
    v = bytes_[pos_++];
    return true;
  }
  [[nodiscard]] bool ReadU16(std::uint16_t& v) {
    if (pos_ + 2 > bytes_.size()) return false;
    v = static_cast<std::uint16_t>(bytes_[pos_] |
                                   (std::uint16_t{bytes_[pos_ + 1]} << 8));
    pos_ += 2;
    return true;
  }
  [[nodiscard]] bool ReadU32(std::uint32_t& v) {
    if (pos_ + 4 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return true;
  }
  [[nodiscard]] bool ReadU64(std::uint64_t& v) {
    if (pos_ + 8 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return true;
  }
  [[nodiscard]] bool ReadBytes(std::size_t n, std::string& out) {
    if (pos_ + n > bytes_.size()) return false;
    out.assign(reinterpret_cast<const char*>(bytes_.data()) + pos_, n);
    pos_ += n;
    return true;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

[[nodiscard]] bool ValidRequestKind(std::uint16_t kind) {
  return kind >= static_cast<std::uint16_t>(FrameKind::kRouteRequest) &&
         kind <= static_cast<std::uint16_t>(FrameKind::kEnsembleTriageRequest);
}

std::string EncodeFrame(FrameKind kind, std::uint64_t id,
                        std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(reinterpret_cast<const char*>(kMagic), sizeof(kMagic));
  PutU16(out, kWireVersion);
  PutU16(out, static_cast<std::uint16_t>(kind));
  PutU64(out, id);
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

}  // namespace

std::string EncodeRequest(const Request& request) {
  std::string payload;
  PutU32(payload, request.deadline_ms);
  switch (request.kind) {
    case FrameKind::kRouteRequest:
      PutString(payload, request.route.from);
      PutString(payload, request.route.to);
      break;
    case FrameKind::kRatiosRequest:
      PutString(payload, request.ratios.label);
      break;
    case FrameKind::kEnsembleRequest:
    case FrameKind::kEnsembleTriageRequest:
      // Kind 8 is kind 3's fields followed by the triage knobs.
      PutU32(payload, static_cast<std::uint32_t>(request.ensemble.scenarios));
      PutU64(payload, request.ensemble.seed);
      PutU32(payload, static_cast<std::uint32_t>(request.ensemble.month));
      PutU32(payload, static_cast<std::uint32_t>(request.ensemble.top));
      payload.push_back(request.ensemble.json ? '\x01' : '\x00');
      if (request.kind == FrameKind::kEnsembleTriageRequest) {
        PutU32(payload, static_cast<std::uint32_t>(request.ensemble.pilot));
        PutU32(payload,
               static_cast<std::uint32_t>(request.ensemble.audit_stride));
        PutU32(payload, request.ensemble.base_rate_ppm);
      }
      break;
    case FrameKind::kProvisionRequest:
      PutU32(payload, static_cast<std::uint32_t>(request.provision.links));
      break;
    case FrameKind::kPingRequest:
      PutU32(payload, request.ping_delay_ms);
      break;
    case FrameKind::kShutdownRequest:
      break;
    case FrameKind::kStreamAdvisory:
      payload.push_back(request.stream.reset ? '\x01' : '\x00');
      PutU32(payload, static_cast<std::uint32_t>(request.stream.top));
      PutU32(payload, static_cast<std::uint32_t>(request.stream.bulletin.size()));
      payload.append(request.stream.bulletin);
      break;
    case FrameKind::kResponse:
      throw InvalidArgument("EncodeRequest on a response kind");
  }
  return EncodeFrame(request.kind, request.id, payload);
}

std::string EncodeResponse(std::uint64_t id, Status status,
                           std::string_view body) {
  std::string payload;
  PutU16(payload, static_cast<std::uint16_t>(status));
  payload.append(body);
  return EncodeFrame(FrameKind::kResponse, id, payload);
}

util::ParseResult<FrameHeader> DecodeFrameHeader(
    std::span<const std::uint8_t> bytes, const WireLimits& limits) {
  if (bytes.size() < kFrameHeaderBytes) {
    return Reject<FrameHeader>(ParseErrorKind::kEmptyInput,
                               "truncated frame header", bytes.size());
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Reject<FrameHeader>(ParseErrorKind::kBadHeader,
                               "bad frame magic (want \"RRW1\")", 0);
  }
  Reader reader(bytes.subspan(sizeof(kMagic)));
  std::uint16_t version = 0;
  std::uint16_t kind = 0;
  FrameHeader header;
  // Header reads cannot fail past the size check above.
  if (!reader.ReadU16(version) || !reader.ReadU16(kind) ||
      !reader.ReadU64(header.id) || !reader.ReadU32(header.payload_len)) {
    return Reject<FrameHeader>(ParseErrorKind::kBadSyntax,
                               "truncated frame header", bytes.size());
  }
  if (version != kWireVersion) {
    return Reject<FrameHeader>(
        ParseErrorKind::kBadHeader,
        util::Format("unsupported wire version %u (want %u)", version,
                     kWireVersion),
        4);
  }
  if (!ValidRequestKind(kind) &&
      kind != static_cast<std::uint16_t>(FrameKind::kResponse)) {
    return Reject<FrameHeader>(ParseErrorKind::kBadValue,
                               util::Format("unknown frame kind %u", kind), 6);
  }
  if (header.payload_len > limits.max_payload) {
    return Reject<FrameHeader>(
        ParseErrorKind::kLimitExceeded,
        util::Format("payload length %u exceeds limit %u", header.payload_len,
                     limits.max_payload),
        16);
  }
  header.kind = static_cast<FrameKind>(kind);
  return header;
}

util::ParseResult<Request> DecodeRequestPayload(
    const FrameHeader& header, std::span<const std::uint8_t> payload,
    const WireLimits& limits) {
  if (header.kind == FrameKind::kResponse) {
    return Reject<Request>(ParseErrorKind::kBadValue,
                           "frame is a response, not a request");
  }
  Request request;
  request.kind = header.kind;
  request.id = header.id;

  Reader reader(payload);
  const auto truncated = [&] {
    return Reject<Request>(ParseErrorKind::kBadSyntax,
                           "truncated request payload", reader.pos());
  };
  const auto read_string = [&](std::string& out, const char* field,
                               util::ParseResult<Request>& error) {
    std::uint16_t len = 0;
    if (!reader.ReadU16(len)) {
      error = truncated();
      return false;
    }
    if (len > limits.max_string_bytes) {
      error = Reject<Request>(
          ParseErrorKind::kLimitExceeded,
          util::Format("%s length %u exceeds limit %u", field, len,
                       limits.max_string_bytes),
          reader.pos());
      return false;
    }
    if (!reader.ReadBytes(len, out)) {
      error = truncated();
      return false;
    }
    return true;
  };

  if (!reader.ReadU32(request.deadline_ms)) return truncated();
  if (request.deadline_ms > limits.max_deadline_ms) {
    return Reject<Request>(
        ParseErrorKind::kBadValue,
        util::Format("deadline %u ms exceeds limit %u ms", request.deadline_ms,
                     limits.max_deadline_ms),
        reader.pos());
  }

  util::ParseResult<Request> error = request;  // overwritten before use
  switch (request.kind) {
    case FrameKind::kRouteRequest:
      if (!read_string(request.route.from, "from", error)) return error;
      if (!read_string(request.route.to, "to", error)) return error;
      break;
    case FrameKind::kRatiosRequest:
      if (!read_string(request.ratios.label, "label", error)) return error;
      break;
    case FrameKind::kEnsembleRequest:
    case FrameKind::kEnsembleTriageRequest: {
      // Every field is read before any is validated, so a truncated
      // payload reports truncation whatever its values.
      const bool triage = request.kind == FrameKind::kEnsembleTriageRequest;
      std::uint32_t scenarios = 0;
      std::uint32_t month = 0;
      std::uint32_t top = 0;
      std::uint8_t json = 0;
      std::uint32_t pilot = 0;
      std::uint32_t audit_stride = 0;
      std::uint32_t base_rate_ppm = 0;
      if (!reader.ReadU32(scenarios) ||
          !reader.ReadU64(request.ensemble.seed) || !reader.ReadU32(month) ||
          !reader.ReadU32(top) || !reader.ReadU8(json) ||
          (triage &&
           (!reader.ReadU32(pilot) || !reader.ReadU32(audit_stride) ||
            !reader.ReadU32(base_rate_ppm)))) {
        return truncated();
      }
      if (scenarios == 0 || scenarios > limits.max_scenarios) {
        return Reject<Request>(
            ParseErrorKind::kBadValue,
            util::Format("scenarios %u outside [1, %u]", scenarios,
                         limits.max_scenarios));
      }
      if (month > 12) {
        return Reject<Request>(ParseErrorKind::kBadValue,
                               util::Format("month %u outside [0, 12]", month));
      }
      if (top > limits.max_top) {
        return Reject<Request>(
            ParseErrorKind::kLimitExceeded,
            util::Format("top %u exceeds limit %u", top, limits.max_top));
      }
      if (json > 1) {
        return Reject<Request>(ParseErrorKind::kBadValue,
                               "json flag must be 0 or 1");
      }
      request.ensemble.scenarios = scenarios;
      request.ensemble.month = static_cast<int>(month);
      request.ensemble.top = top;
      request.ensemble.json = json != 0;
      if (!triage) break;
      if (pilot == 0 || pilot > limits.max_scenarios) {
        return Reject<Request>(
            ParseErrorKind::kBadValue,
            util::Format("pilot %u outside [1, %u]", pilot,
                         limits.max_scenarios));
      }
      if (audit_stride == 0 || audit_stride > limits.max_audit_stride) {
        return Reject<Request>(
            ParseErrorKind::kBadValue,
            util::Format("audit_stride %u outside [1, %u]", audit_stride,
                         limits.max_audit_stride));
      }
      if (base_rate_ppm == 0 || base_rate_ppm > 1'000'000) {
        return Reject<Request>(
            ParseErrorKind::kBadValue,
            util::Format("base_rate_ppm %u outside [1, 1000000]",
                         base_rate_ppm));
      }
      request.ensemble.triage = true;
      request.ensemble.pilot = pilot;
      request.ensemble.audit_stride = audit_stride;
      request.ensemble.base_rate_ppm = base_rate_ppm;
      break;
    }
    case FrameKind::kProvisionRequest: {
      std::uint32_t links = 0;
      if (!reader.ReadU32(links)) return truncated();
      if (links == 0 || links > limits.max_links) {
        return Reject<Request>(
            ParseErrorKind::kBadValue,
            util::Format("links %u outside [1, %u]", links, limits.max_links));
      }
      request.provision.links = links;
      break;
    }
    case FrameKind::kPingRequest:
      if (!reader.ReadU32(request.ping_delay_ms)) return truncated();
      if (request.ping_delay_ms > limits.max_ping_delay_ms) {
        return Reject<Request>(
            ParseErrorKind::kLimitExceeded,
            util::Format("ping delay %u ms exceeds limit %u ms",
                         request.ping_delay_ms, limits.max_ping_delay_ms));
      }
      break;
    case FrameKind::kShutdownRequest:
      break;
    case FrameKind::kStreamAdvisory: {
      std::uint8_t reset = 0;
      std::uint32_t top = 0;
      std::uint32_t bulletin_len = 0;
      if (!reader.ReadU8(reset) || !reader.ReadU32(top) ||
          !reader.ReadU32(bulletin_len)) {
        return truncated();
      }
      if (reset > 1) {
        return Reject<Request>(ParseErrorKind::kBadValue,
                               "reset flag must be 0 or 1");
      }
      if (top > limits.max_top) {
        return Reject<Request>(
            ParseErrorKind::kLimitExceeded,
            util::Format("top %u exceeds limit %u", top, limits.max_top));
      }
      if (bulletin_len > limits.max_bulletin_bytes) {
        return Reject<Request>(
            ParseErrorKind::kLimitExceeded,
            util::Format("bulletin length %u exceeds limit %u", bulletin_len,
                         limits.max_bulletin_bytes));
      }
      if (!reader.ReadBytes(bulletin_len, request.stream.bulletin)) {
        return truncated();
      }
      request.stream.reset = reset != 0;
      request.stream.top = top;
      break;
    }
    case FrameKind::kResponse:
      break;  // unreachable; rejected above
  }
  if (!reader.exhausted()) {
    return Reject<Request>(ParseErrorKind::kBadSyntax,
                           "trailing bytes after request payload",
                           reader.pos());
  }
  CountAccepted();
  return request;
}

util::ParseResult<Response> DecodeResponsePayload(
    const FrameHeader& header, std::span<const std::uint8_t> payload,
    const WireLimits& limits) {
  (void)limits;
  if (header.kind != FrameKind::kResponse) {
    return Reject<Response>(ParseErrorKind::kBadValue,
                            "frame is a request, not a response");
  }
  Reader reader(payload);
  Response response;
  response.id = header.id;
  std::uint16_t status = 0;
  if (!reader.ReadU16(status)) {
    return Reject<Response>(ParseErrorKind::kBadSyntax,
                            "truncated response payload", reader.pos());
  }
  if (status > static_cast<std::uint16_t>(Status::kShuttingDown)) {
    return Reject<Response>(ParseErrorKind::kBadValue,
                            util::Format("unknown status %u", status));
  }
  response.status = static_cast<Status>(status);
  if (!reader.ReadBytes(payload.size() - reader.pos(), response.body)) {
    return Reject<Response>(ParseErrorKind::kBadSyntax,
                            "truncated response payload", reader.pos());
  }
  CountAccepted();
  return response;
}

util::ParseResult<Frame> DecodeSingleFrame(std::span<const std::uint8_t> bytes,
                                           const WireLimits& limits) {
  auto header = DecodeFrameHeader(bytes, limits);
  if (!header.ok()) return header.error();
  const std::size_t total = kFrameHeaderBytes + header.value().payload_len;
  if (bytes.size() < total) {
    CountReject(ParseErrorKind::kBadSyntax);
    return util::ParseResult<Frame>::Failure(
        ParseErrorKind::kBadSyntax, "truncated frame payload", bytes.size());
  }
  if (bytes.size() > total) {
    CountReject(ParseErrorKind::kBadSyntax);
    return util::ParseResult<Frame>::Failure(
        ParseErrorKind::kBadSyntax, "trailing bytes after frame", total);
  }
  Frame frame;
  frame.header = header.value();
  frame.payload.assign(reinterpret_cast<const char*>(bytes.data()) +
                           kFrameHeaderBytes,
                       frame.header.payload_len);
  return frame;
}

util::ParseResult<std::optional<Frame>> FrameAssembler::Poll() {
  if (buffer_.size() < kFrameHeaderBytes) return std::optional<Frame>{};
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(buffer_.data()), buffer_.size());
  auto header = DecodeFrameHeader(bytes, limits_);
  if (!header.ok()) return header.error();
  const std::size_t total = kFrameHeaderBytes + header.value().payload_len;
  if (buffer_.size() < total) return std::optional<Frame>{};
  Frame frame;
  frame.header = header.value();
  frame.payload = buffer_.substr(kFrameHeaderBytes,
                                 frame.header.payload_len);
  buffer_.erase(0, total);
  return std::optional<Frame>(std::move(frame));
}

}  // namespace riskroute::server::wire
