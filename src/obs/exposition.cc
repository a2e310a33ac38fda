#include "obs/exposition.h"

#include <cstdio>
#include <map>
#include <mutex>

#include "obs/metrics.h"

namespace nano::obs {

namespace {

std::string fmtRoundTrip(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool validNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

void writeSummary(std::ostream& os, const std::string& base,
                  const TimerStat::Snapshot& s) {
  os << "# TYPE " << base << " summary\n";
  os << base << "{quantile=\"0.5\"} " << fmtRoundTrip(s.p50) << "\n";
  os << base << "{quantile=\"0.9\"} " << fmtRoundTrip(s.p90) << "\n";
  os << base << "{quantile=\"0.99\"} " << fmtRoundTrip(s.p99) << "\n";
  os << base << "{quantile=\"0.999\"} " << fmtRoundTrip(s.p999) << "\n";
  os << base << "_sum " << fmtRoundTrip(s.total) << "\n";
  os << base << "_count " << s.count << "\n";
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Counter values at the last baseline reset, for delta snapshots.
std::mutex baselineMutex;
std::map<std::string, std::int64_t, std::less<>>& baselineCounters() {
  static auto* baseline = new std::map<std::string, std::int64_t, std::less<>>();
  return *baseline;
}

}  // namespace

std::string prometheusName(std::string_view name) {
  std::string out = "nano_";
  out.reserve(out.size() + name.size());
  for (char c : name) out += validNameChar(c) ? c : '_';
  return out;
}

void exportPrometheus(std::ostream& os) {
  const MetricsRegistry& registry = MetricsRegistry::instance();
  for (const auto& row : registry.counters()) {
    const std::string base = prometheusName(row.name) + "_total";
    os << "# TYPE " << base << " counter\n";
    os << base << " " << row.value << "\n";
  }
  for (const auto& row : registry.gauges()) {
    const std::string base = prometheusName(row.name);
    os << "# TYPE " << base << " gauge\n";
    os << base << " " << fmtRoundTrip(row.value) << "\n";
  }
  for (const auto& row : registry.timers()) {
    writeSummary(os, prometheusName(row.name), row.stat);
  }
  for (const auto& row : registry.spans()) {
    writeSummary(os, prometheusName(row.name), row.stat);
  }
}

void exportStatsJson(std::ostream& os, bool delta) {
  const MetricsRegistry& registry = MetricsRegistry::instance();
  os << "{\"delta\":" << (delta ? "true" : "false") << ",\"counters\":{";
  {
    const std::lock_guard<std::mutex> lock(baselineMutex);
    auto& baseline = baselineCounters();
    bool first = true;
    for (const auto& row : registry.counters()) {
      if (!first) os << ",";
      first = false;
      std::int64_t value = row.value;
      if (delta) {
        const auto it = baseline.find(row.name);
        if (it != baseline.end()) value -= it->second;
        baseline[row.name] = row.value;  // advance the baseline
      }
      os << "\"" << jsonEscape(row.name) << "\":" << value;
    }
  }
  os << "},\"gauges\":{";
  bool first = true;
  for (const auto& row : registry.gauges()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << jsonEscape(row.name) << "\":" << fmtRoundTrip(row.value);
  }
  auto timerMap = [&os](const std::vector<MetricsRegistry::TimerRow>& rows) {
    bool firstRow = true;
    for (const auto& row : rows) {
      if (!firstRow) os << ",";
      firstRow = false;
      const auto& s = row.stat;
      os << "\"" << jsonEscape(row.name) << "\":{\"count\":" << s.count
         << ",\"total_s\":" << fmtRoundTrip(s.total)
         << ",\"mean_s\":" << fmtRoundTrip(s.mean)
         << ",\"p50_s\":" << fmtRoundTrip(s.p50)
         << ",\"p90_s\":" << fmtRoundTrip(s.p90)
         << ",\"p99_s\":" << fmtRoundTrip(s.p99)
         << ",\"p999_s\":" << fmtRoundTrip(s.p999) << "}";
    }
  };
  os << "},\"timers\":{";
  timerMap(registry.timers());
  os << "},\"spans\":{";
  timerMap(registry.spans());
  os << "}}";
}

void resetStatsBaseline() {
  const std::lock_guard<std::mutex> lock(baselineMutex);
  auto& baseline = baselineCounters();
  baseline.clear();
  for (const auto& row : MetricsRegistry::instance().counters()) {
    baseline[row.name] = row.value;
  }
}

}  // namespace nano::obs
