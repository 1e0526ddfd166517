#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace servebench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t SpanLog::NameId(const std::string& name) {
  const auto [it, inserted] =
      ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::int32_t SpanLog::Begin(const std::string& name, std::int32_t parent,
                            std::uint64_t request) {
  Span span;
  span.name = NameId(name);
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  span.end_ns = span.start_ns;
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::Merge(const SpanLog& other) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (Span span : other.spans_) {
    span.name = NameId(other.names_[span.name]);
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

bool SpanLog::WriteJsonLines(const std::string& path,
                             std::int64_t epoch_ns) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 names_[span.name].c_str(),
                 static_cast<long long>(span.start_ns - epoch_ns),
                 static_cast<long long>(span.end_ns - epoch_ns), span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(out) == 0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

Attribution Attribute(const SpanLog& log, const std::string& root_name) {
  const std::vector<Span>& spans = log.spans();
  const std::vector<std::string>& names = log.names();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }

  Attribution out;
  // Per root span: the layer self times of its request.
  struct Request {
    double root_ns = 0.0;
    std::map<std::string, double> layer_self;
  };
  std::map<std::int32_t, Request> requests;
  std::vector<std::int32_t> root_of(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::string& name = names[span.name];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    const double self = duration - child_ns[i];
    out.durations[name].push_back(duration);
    out.self[name].push_back(self);
    if (span.request == 0) continue;  // set-up spans
    // Parents precede children in the log, so the root is resolved.
    const bool is_root = span.parent < 0 && name == root_name;
    root_of[i] = is_root ? static_cast<std::int32_t>(i)
                         : (span.parent >= 0 ? root_of[span.parent] : -1);
    if (root_of[i] < 0) continue;
    Request& request = requests[root_of[i]];
    if (is_root) {
      request.root_ns = duration;
      out.roots.push_back(duration);
      request.layer_self["unattributed"] += self;
    } else {
      request.layer_self[name.substr(0, name.find('.'))] += self;
    }
  }

  if (requests.empty()) return out;
  // The median band: requests ranked 40th to 60th percentile by root
  // duration, and at least the median request itself.
  std::vector<const Request*> ranked;
  for (const auto& entry : requests) ranked.push_back(&entry.second);
  std::sort(ranked.begin(), ranked.end(),
            [](const Request* a, const Request* b) {
              return a->root_ns < b->root_ns;
            });
  const std::size_t n = ranked.size();
  const std::size_t first = std::min(n * 2 / 5, (n - 1) / 2);
  const std::size_t last = std::max(first + 1, n * 3 / 5);
  for (std::size_t r = first; r < last; ++r) {
    const Request& request = *ranked[r];
    ++out.band_requests;
    out.band_root_mean += request.root_ns;
    for (const auto& [layer, ns] : request.layer_self) {
      out.band_self[layer] += ns;
    }
  }
  if (out.band_requests > 0) {
    const auto count = static_cast<double>(out.band_requests);
    out.band_root_mean /= count;
    for (auto& [layer, ns] : out.band_self) ns /= count;
  }
  return out;
}

}  // namespace servebench
