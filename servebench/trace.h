// In-memory span log for the traced benchmark pass, plus the statistics
// helpers the benchmark reports with.
//
// Spans are recorded from the benchmark's own files, around its calls into
// each module's public functions; nothing in src/ is instrumented. A
// traced request is one served round trip (the root span) whose children
// are replays of its parts, each timed on its own: a ping round trip for
// the transport, the wire codec on the request's and reply's bytes, and
// the direct api::Service call with the library calls inside it. Children
// run after the round trip they replay, so a span's self time is its
// duration minus its children's durations, and the root's self time is
// the part of the served latency that no replayed part accounts for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t NowNs();

struct Span {
  std::uint32_t name = 0;  // index into SpanLog::names()
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One thread's spans. Not thread-safe: each recording thread owns one,
/// and Merge combines them once recording has stopped.
class SpanLog {
 public:
  /// Opens a span and returns its index.
  std::int32_t Begin(const std::string& name, std::int32_t parent,
                     std::uint64_t request);
  void End(std::int32_t span) { spans_[span].end_ns = NowNs(); }

  /// Appends `other`, re-basing its parent links.
  void Merge(const SpanLog& other);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

  /// Writes one JSON object per line: name, start_ns and end_ns relative
  /// to `epoch_ns`, parent (span index or -1), request id.
  bool WriteJsonLines(const std::string& path, std::int64_t epoch_ns) const;

 private:
  std::uint32_t NameId(const std::string& name);

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

/// RAII span on a SpanLog; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, std::int32_t parent,
             std::uint64_t request)
      : log_(log), id_(log ? log->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::int32_t id_;
};

/// Self-time attribution of a traced pass.
struct Attribution {
  /// Per span name: every recorded duration, nanoseconds.
  std::map<std::string, std::vector<double>> durations;
  /// Per span name: every recorded self time, nanoseconds.
  std::map<std::string, std::vector<double>> self;
  /// Root (served round trip) durations, nanoseconds.
  std::vector<double> roots;
  /// Mean self time per layer over the median band of requests (root
  /// duration between the 40th and 60th percentile), nanoseconds. The
  /// layer is the span name's first component (server, api, core,
  /// forecast, sim); "unattributed" is the roots' self time.
  std::map<std::string, double> band_self;
  double band_root_mean = 0.0;
  std::size_t band_requests = 0;
};

/// Attributes the request spans of `log` (those with request id > 0 whose
/// root is named `root_name`).
[[nodiscard]] Attribution Attribute(const SpanLog& log,
                                    const std::string& root_name);

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double Quantile(std::vector<double> values, double q);
[[nodiscard]] double Median(std::vector<double> values);

}  // namespace servebench
