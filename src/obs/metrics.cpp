#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

#include "common/trace.h"

namespace tca::obs {

namespace {

template <typename Map>
auto& find_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
  }
  return it->second;
}

// JSON number formatting: integers render without a fraction so counter
// values round-trip exactly; non-finite doubles (empty histogram min/max)
// degrade to 0, as JSON has no Inf/NaN.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
}

}  // namespace

Counter& MetricRegistry::counter(std::string_view name) {
  return find_or_create(counters_, name);
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  return find_or_create(gauges_, name);
}

Histogram& MetricRegistry::histogram(std::string_view name) {
  return find_or_create(histograms_, name);
}

std::uint64_t MetricRegistry::counter_value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

double MetricRegistry::gauge_value(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second.value();
}

bool MetricRegistry::has_counter(std::string_view name) const {
  return counters_.find(name) != counters_.end();
}

bool MetricRegistry::has_histogram(std::string_view name) const {
  return histograms_.find(name) != histograms_.end();
}

MetricsSnapshot MetricRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g.value();
  for (const auto& [name, h] : histograms_) {
    HistogramSummary s;
    s.count = h.count();
    s.mean = h.mean();
    s.min = h.min();
    s.max = h.max();
    if (s.count > 0) {
      s.p50 = h.percentile(50.0);
      s.p95 = h.percentile(95.0);
      s.p99 = h.percentile(99.0);
    }
    snap.histograms[name] = s;
  }
  return snap;
}

std::string MetricRegistry::to_json() const {
  const MetricsSnapshot snap = snapshot();
  std::string out;
  out.reserve(256 + 64 * (counters_.size() + gauges_.size()) +
              192 * histograms_.size());
  out += "{\n  \"meta\": {\"schema\": \"tca-metrics-v1\"},\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_quoted(out, name);
    out += ": ";
    append_number(out, static_cast<double>(v));
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_quoted(out, name);
    out += ": ";
    append_number(out, v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    append_quoted(out, name);
    out += ": {\"count\": ";
    append_number(out, static_cast<double>(h.count));
    out += ", \"mean\": ";
    append_number(out, h.mean);
    out += ", \"min\": ";
    append_number(out, h.min);
    out += ", \"max\": ";
    append_number(out, h.max);
    out += ", \"p50\": ";
    append_number(out, h.p50);
    out += ", \"p95\": ";
    append_number(out, h.p95);
    out += ", \"p99\": ";
    append_number(out, h.p99);
    out += "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

Status MetricRegistry::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    return {ErrorCode::kInvalidArgument,
            "cannot open metrics output file: " + path};
  }
  const std::string json = to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return Status::ok();
}

void MetricRegistry::emit_trace_counters(TimePs at) const {
  Trace& trace = Trace::instance();
  if (!trace.enabled()) return;
  const Trace::StrId track = trace.intern("metrics");
  for (const auto& [name, c] : counters_) {
    trace.counter(track, trace.intern(name), at,
                  static_cast<double>(c.value()));
  }
  for (const auto& [name, g] : gauges_) {
    trace.counter(track, trace.intern(name), at, g.value());
  }
}

}  // namespace tca::obs
