// RouteEngine snapshot serialization.
//
// Format (version 1, little-endian, SoA):
//
//   header (128 bytes)
//     [0]   char     magic[8]      "RRENGSNP"
//     [8]   u32      version       1
//     [12]  u32      header_bytes  128
//     [16]  u64      node_count
//     [24]  u64      edge_count    (directed)
//     [32]  u64      landmark_count
//     [40]  u64      names_bytes   (total name-blob length)
//     [48]  f64      lambda_historical
//     [56]  f64      lambda_forecast
//     [64]  u64      checksum      FNV-1a64 over every snapshot byte
//                                  except these eight
//     [72]  u64      total_bytes   (whole snapshot, for truncation checks)
//     [80]  u8[48]   reserved, zero
//
//   sections, in this order, each starting on a 64-byte boundary (zero
//   padding between; the file end is padded to 64 as well):
//     row_offsets   u32 x (node_count + 1)
//     col           u32 x edge_count
//     miles         f64 x edge_count
//     impact        f64 x node_count
//     historical    f64 x node_count
//     forecast      f64 x node_count
//     latitude      f64 x node_count
//     longitude     f64 x node_count
//     landmark_ids  u32 x landmark_count
//     landmark_miles f64 x (node_count * landmark_count), node-major
//     name_offsets  u32 x (node_count + 1)
//     name_blob     u8 x names_bytes
//
// The risk plane, node scores and link table are derived state and are
// rebuilt on load through the same RebuildRiskPlane / RebuildLinkTable
// the constructor uses, so a loaded engine's sweeps are bitwise identical
// to the saved one's.
//
// The 64-byte section alignment plus the raw-SoA layout keep the format
// mmap-ready: a future server can map the file and point the CSR spans
// straight into it without a deserialization pass.
//
// Canonicality. The writer emits exactly one byte sequence per engine
// state, and the loader rejects anything the writer would not produce —
// wrong magic/version/sizes, checksum mismatches, nonzero padding,
// structurally invalid arrays. Every accepted input therefore re-saves
// byte-identically, a property the snapshot fuzz harness asserts on each
// accepted corpus entry.

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/route_engine.h"
#include "geo/geo_point.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/parse_result.h"
#include "util/strings.h"

namespace riskroute::core {
namespace {

constexpr char kMagic[8] = {'R', 'R', 'E', 'N', 'G', 'S', 'N', 'P'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kHeaderBytes = 128;
constexpr std::size_t kAlign = 64;
constexpr std::size_t kChecksumOffset = 64;

using util::ParseDiagnostic;
using util::ParseErrorKind;

std::size_t AlignUp(std::size_t offset) {
  return (offset + (kAlign - 1)) & ~(kAlign - 1);
}

/// Appends raw little-endian element bytes after zero-padding to the
/// section boundary. The build host is little-endian (asserted at load by
/// the magic/checksum pair: a byte-swapped writer cannot produce a
/// snapshot this loader accepts).
template <typename T>
void AppendSection(std::string& out, const T* data, std::size_t count) {
  out.resize(AlignUp(out.size()), '\0');
  if (count != 0) {
    out.append(reinterpret_cast<const char*>(data), count * sizeof(T));
  }
}

template <typename T>
void PutAt(std::string& out, std::size_t offset, T value) {
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

/// Bounds-checked, alignment-aware section reader over the snapshot span.
struct SectionCursor {
  std::span<const std::uint8_t> bytes;
  std::size_t offset = kHeaderBytes;
  ParseDiagnostic diag;
  bool failed = false;

  bool Fail(ParseErrorKind kind, std::string message) {
    if (!failed) {
      diag = ParseDiagnostic{kind, std::move(message), offset, 0, 0};
      failed = true;
    }
    return false;
  }

  /// Advances over the alignment gap (must be zero bytes) and reads
  /// `count` elements of T into `dst`. Element counts are validated
  /// against the remaining bytes before any multiplication can overflow.
  template <typename T>
  bool Read(std::vector<T>& dst, std::uint64_t count, const char* what) {
    if (failed) return false;
    const std::size_t aligned = AlignUp(offset);
    if (aligned > bytes.size()) {
      return Fail(ParseErrorKind::kBadSyntax,
                  util::Format("snapshot truncated before %s section", what));
    }
    for (std::size_t i = offset; i < aligned; ++i) {
      if (bytes[i] != 0) {
        return Fail(ParseErrorKind::kBadValue,
                    util::Format("nonzero padding before %s section", what));
      }
    }
    offset = aligned;
    const std::size_t remaining = bytes.size() - offset;
    if (count > remaining / sizeof(T)) {
      return Fail(
          ParseErrorKind::kBadSyntax,
          util::Format("snapshot truncated inside %s section", what));
    }
    dst.resize(static_cast<std::size_t>(count));
    if (count != 0) {
      std::memcpy(dst.data(), bytes.data() + offset,
                  static_cast<std::size_t>(count) * sizeof(T));
      offset += static_cast<std::size_t>(count) * sizeof(T);
    }
    return true;
  }

  /// Consumes the final padding; the snapshot must end exactly here.
  bool Finish() {
    if (failed) return false;
    const std::size_t aligned = AlignUp(offset);
    if (aligned != bytes.size()) {
      return Fail(ParseErrorKind::kBadSyntax,
                  "snapshot size does not match its sections");
    }
    for (std::size_t i = offset; i < aligned; ++i) {
      if (bytes[i] != 0) {
        return Fail(ParseErrorKind::kBadValue, "nonzero trailing padding");
      }
    }
    offset = aligned;
    return true;
  }
};

template <typename T>
T HeaderField(std::span<const std::uint8_t> bytes, std::size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

util::ParseResult<RouteEngine> Reject(ParseDiagnostic diag) {
  util::ingest::CountRejected("snapshot", diag.kind);
  return util::ParseResult<RouteEngine>(std::move(diag));
}

util::ParseResult<RouteEngine> Reject(ParseErrorKind kind, std::string message,
                                      std::size_t byte_offset = 0) {
  return Reject(ParseDiagnostic{kind, std::move(message), byte_offset, 0, 0});
}

bool AllFiniteNonNegative(const std::vector<double>& values) {
  for (const double v : values) {
    if (!std::isfinite(v) || v < 0.0) return false;
  }
  return true;
}

}  // namespace

std::uint64_t RouteEngine::SnapshotChecksum(std::span<const std::uint8_t> bytes,
                                            std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string RouteEngine::SnapshotBytes() const {
  const std::size_t n = node_count();
  const std::size_t k = landmark_ids_.size();

  std::string out(kHeaderBytes, '\0');
  std::memcpy(out.data(), kMagic, sizeof(kMagic));
  PutAt(out, 8, kVersion);
  PutAt(out, 12, kHeaderBytes);
  PutAt(out, 16, static_cast<std::uint64_t>(n));
  PutAt(out, 24, static_cast<std::uint64_t>(col_.size()));
  PutAt(out, 32, static_cast<std::uint64_t>(k));
  PutAt(out, 48, params_.lambda_historical);
  PutAt(out, 56, params_.lambda_forecast);

  AppendSection(out, row_offsets_.data(), n + 1);
  AppendSection(out, col_.data(), col_.size());
  AppendSection(out, miles_.data(), miles_.size());
  AppendSection(out, impact_.data(), n);
  AppendSection(out, historical_.data(), n);
  AppendSection(out, forecast_.data(), n);
  std::vector<double> axis(n);
  for (std::size_t v = 0; v < n; ++v) axis[v] = location_[v].latitude();
  AppendSection(out, axis.data(), n);
  for (std::size_t v = 0; v < n; ++v) axis[v] = location_[v].longitude();
  AppendSection(out, axis.data(), n);
  AppendSection(out, landmark_ids_.data(), k);
  AppendSection(out, landmark_miles_.data(), landmark_miles_.size());

  std::vector<std::uint32_t> name_offsets(n + 1, 0);
  std::string blob;
  for (std::size_t v = 0; v < n; ++v) {
    blob += name_[v];
    name_offsets[v + 1] = static_cast<std::uint32_t>(blob.size());
  }
  PutAt(out, 40, static_cast<std::uint64_t>(blob.size()));
  AppendSection(out, name_offsets.data(), n + 1);
  AppendSection(out, blob.data(), blob.size());
  out.resize(AlignUp(out.size()), '\0');
  PutAt(out, 72, static_cast<std::uint64_t>(out.size()));

  const auto* data = reinterpret_cast<const std::uint8_t*>(out.data());
  std::uint64_t checksum =
      SnapshotChecksum(std::span(data, kChecksumOffset));
  checksum = SnapshotChecksum(
      std::span(data + kChecksumOffset + 8, out.size() - kChecksumOffset - 8),
      checksum);
  PutAt(out, kChecksumOffset, checksum);
  return out;
}

void RouteEngine::SaveSnapshot(std::ostream& out) const {
  const std::string bytes = SnapshotBytes();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw InternalError("RouteEngine::SaveSnapshot: write failed");
  obs::MetricsRegistry::Global()
      .GetCounter("core.route_engine.snapshot_saves")
      .Add(1);
}

void RouteEngine::SaveSnapshotFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw InvalidArgument("RouteEngine::SaveSnapshotFile: cannot open " + path);
  }
  SaveSnapshot(out);
}

util::ParseResult<RouteEngine> RouteEngine::LoadSnapshot(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) {
    return Reject(ParseErrorKind::kBadHeader,
                  util::Format("snapshot header truncated: %zu bytes",
                               bytes.size()));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Reject(ParseErrorKind::kBadHeader, "bad snapshot magic");
  }
  const auto version = HeaderField<std::uint32_t>(bytes, 8);
  if (version != kVersion) {
    return Reject(ParseErrorKind::kBadValue,
                  util::Format("unsupported snapshot version %u",
                               static_cast<unsigned>(version)),
                  8);
  }
  if (HeaderField<std::uint32_t>(bytes, 12) != kHeaderBytes) {
    return Reject(ParseErrorKind::kBadHeader, "bad snapshot header size", 12);
  }
  const auto node_count = HeaderField<std::uint64_t>(bytes, 16);
  const auto edge_count = HeaderField<std::uint64_t>(bytes, 24);
  const auto landmark_count = HeaderField<std::uint64_t>(bytes, 32);
  const auto names_bytes = HeaderField<std::uint64_t>(bytes, 40);
  const double lambda_h = HeaderField<double>(bytes, 48);
  const double lambda_f = HeaderField<double>(bytes, 56);
  const auto total_bytes = HeaderField<std::uint64_t>(bytes, 72);
  for (std::size_t i = 80; i < kHeaderBytes; ++i) {
    if (bytes[i] != 0) {
      return Reject(ParseErrorKind::kBadValue, "nonzero reserved header bytes",
                    i);
    }
  }
  if (total_bytes != bytes.size()) {
    return Reject(
        ParseErrorKind::kBadSyntax,
        util::Format("snapshot truncated: header says %llu bytes, have %zu",
                     static_cast<unsigned long long>(total_bytes),
                     bytes.size()),
        72);
  }
  // The same CSR capacity limits the freezing constructor enforces, plus
  // k <= n (farthest-point selection never repeats a node).
  constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  if (node_count >= kMaxU32 || edge_count > kMaxU32 ||
      landmark_count > node_count || names_bytes > kMaxU32) {
    return Reject(ParseErrorKind::kLimitExceeded,
                  "snapshot counts exceed engine limits", 16);
  }
  if (!std::isfinite(lambda_h) || lambda_h < 0.0 || !std::isfinite(lambda_f) ||
      lambda_f < 0.0) {
    return Reject(ParseErrorKind::kBadValue,
                  "snapshot lambdas must be finite and non-negative", 48);
  }

  RouteEngine engine;
  engine.params_.lambda_historical = lambda_h;
  engine.params_.lambda_forecast = lambda_f;

  SectionCursor cursor{bytes, kHeaderBytes, {}, false};
  std::vector<double> lat;
  std::vector<double> lon;
  std::vector<std::uint32_t> name_offsets;
  std::vector<std::uint8_t> blob;
  cursor.Read(engine.row_offsets_, node_count + 1, "row_offsets");
  cursor.Read(engine.col_, edge_count, "col");
  cursor.Read(engine.miles_, edge_count, "miles");
  cursor.Read(engine.impact_, node_count, "impact");
  cursor.Read(engine.historical_, node_count, "historical");
  cursor.Read(engine.forecast_, node_count, "forecast");
  cursor.Read(lat, node_count, "latitude");
  cursor.Read(lon, node_count, "longitude");
  cursor.Read(engine.landmark_ids_, landmark_count, "landmark_ids");
  cursor.Read(engine.landmark_miles_, node_count * landmark_count,
              "landmark_miles");
  cursor.Read(name_offsets, node_count + 1, "name_offsets");
  cursor.Read(blob, names_bytes, "name_blob");
  if (!cursor.Finish()) return Reject(cursor.diag);

  std::uint64_t checksum =
      SnapshotChecksum(bytes.subspan(0, kChecksumOffset));
  checksum = SnapshotChecksum(bytes.subspan(kChecksumOffset + 8), checksum);
  if (checksum != HeaderField<std::uint64_t>(bytes, kChecksumOffset)) {
    return Reject(ParseErrorKind::kBadValue, "snapshot checksum mismatch",
                  kChecksumOffset);
  }

  // Structural validation: exactly what the freezing constructor would
  // have produced.
  if (engine.row_offsets_.front() != 0 ||
      engine.row_offsets_.back() != edge_count) {
    return Reject(ParseErrorKind::kBadValue, "CSR row offsets out of bounds");
  }
  for (std::size_t u = 0; u + 1 < engine.row_offsets_.size(); ++u) {
    if (engine.row_offsets_[u] > engine.row_offsets_[u + 1]) {
      return Reject(ParseErrorKind::kBadValue,
                    "CSR row offsets not monotone");
    }
  }
  for (const std::uint32_t head : engine.col_) {
    if (head >= node_count) {
      return Reject(ParseErrorKind::kBadValue, "CSR edge head out of range");
    }
  }
  if (!AllFiniteNonNegative(engine.miles_)) {
    return Reject(ParseErrorKind::kBadValue,
                  "edge mileage must be finite and non-negative");
  }
  // Every directed edge must belong to exactly one undirected link, so
  // nothing downstream of the loader meets an edge without one.
  if (const char* why = engine.RebuildLinkTable()) {
    return Reject(ParseErrorKind::kBadValue, why);
  }
  if (!AllFiniteNonNegative(engine.impact_) ||
      !AllFiniteNonNegative(engine.historical_) ||
      !AllFiniteNonNegative(engine.forecast_)) {
    return Reject(ParseErrorKind::kBadValue,
                  "node attributes must be finite and non-negative");
  }
  for (std::size_t v = 0; v < node_count; ++v) {
    if (!geo::IsValidLatLon(lat[v], lon[v])) {
      return Reject(ParseErrorKind::kBadValue,
                    util::Format("node %zu location out of range", v));
    }
  }
  for (const std::uint32_t id : engine.landmark_ids_) {
    if (id >= node_count) {
      return Reject(ParseErrorKind::kBadValue, "landmark id out of range");
    }
  }
  for (const double d : engine.landmark_miles_) {
    // +inf marks a disconnected (landmark, node) pair; NaN and negatives
    // would poison the A* bounds.
    if (std::isnan(d) || d < 0.0) {
      return Reject(ParseErrorKind::kBadValue,
                    "landmark distances must be non-negative");
    }
  }
  if (name_offsets.front() != 0 || name_offsets.back() != names_bytes) {
    return Reject(ParseErrorKind::kBadValue, "name offsets out of bounds");
  }
  for (std::size_t v = 0; v + 1 < name_offsets.size(); ++v) {
    if (name_offsets[v] > name_offsets[v + 1]) {
      return Reject(ParseErrorKind::kBadValue, "name offsets not monotone");
    }
  }

  engine.location_.reserve(node_count);
  for (std::size_t v = 0; v < node_count; ++v) {
    engine.location_.emplace_back(lat[v], lon[v]);
  }
  engine.name_.resize(node_count);
  const char* const blob_chars =
      blob.empty() ? "" : reinterpret_cast<const char*>(blob.data());
  for (std::size_t v = 0; v < node_count; ++v) {
    engine.name_[v].assign(blob_chars + name_offsets[v],
                           name_offsets[v + 1] - name_offsets[v]);
  }
  engine.node_score_.resize(node_count);
  engine.risk_.resize(engine.col_.size());
  engine.RebuildRiskPlane();

  util::ingest::CountAccepted("snapshot");
  obs::MetricsRegistry::Global()
      .GetCounter("core.route_engine.snapshot_loads")
      .Add(1);
  return util::ParseResult<RouteEngine>(std::move(engine));
}

util::ParseResult<RouteEngine> RouteEngine::LoadSnapshotFile(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Reject(ParseErrorKind::kEmptyInput,
                  "cannot open snapshot file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();
  return LoadSnapshot(std::span(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

}  // namespace riskroute::core
