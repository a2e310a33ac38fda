#include "obs/export.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/table.h"

namespace nano::obs {

namespace {

/// Seconds with an SI prefix ("3.2 ms"); "-" for an empty stat.
std::string fmtSeconds(double s, std::int64_t count) {
  if (count == 0) return "-";
  return util::fmtEng(s, "s", 3);
}

}  // namespace

void printRunReport(std::ostream& os) {
  const MetricsRegistry& registry = MetricsRegistry::instance();
  const auto spans = registry.spans();
  const auto timers = registry.timers();
  const auto counters = registry.counters();
  const auto gauges = registry.gauges();

  os << "== nanodesign run report ==\n";
  if (spans.empty() && timers.empty() && counters.empty() && gauges.empty()) {
    os << "(no metrics recorded";
    if (!enabled()) os << "; enable with obs::setEnabled(true) or NANO_OBS=1";
    os << ")\n";
    return;
  }

  if (!spans.empty()) {
    os << "\nPhase breakdown (wall clock, nested):\n";
    util::TextTable t({"phase", "calls", "total", "mean", "p50", "p99"});
    // Depth-first tree order: compare paths component-wise so a child
    // always follows its parent even when a sibling shares the prefix.
    std::vector<std::pair<std::vector<std::string>,
                          const MetricsRegistry::TimerRow*>> ordered;
    ordered.reserve(spans.size());
    for (const auto& row : spans) ordered.emplace_back(splitSpanPath(row.name), &row);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [parts, rowPtr] : ordered) {
      const auto& row = *rowPtr;
      std::string label(2 * (parts.size() - 1), ' ');
      label += parts.back();
      const auto& s = row.stat;
      t.addRow({label, std::to_string(s.count), fmtSeconds(s.total, s.count),
                fmtSeconds(s.mean, s.count), fmtSeconds(s.p50, s.count),
                fmtSeconds(s.p99, s.count)});
    }
    t.print(os);
  }

  if (!timers.empty()) {
    os << "\nTimers:\n";
    util::TextTable t({"timer", "calls", "total", "mean", "min", "max"});
    for (const auto& row : timers) {
      const auto& s = row.stat;
      t.addRow({row.name, std::to_string(s.count), fmtSeconds(s.total, s.count),
                fmtSeconds(s.mean, s.count), fmtSeconds(s.min, s.count),
                fmtSeconds(s.max, s.count)});
    }
    t.print(os);
  }

  if (!counters.empty()) {
    os << "\nCounters:\n";
    util::TextTable t({"counter", "value"});
    for (const auto& row : counters) {
      t.addRow({row.name, std::to_string(row.value)});
    }
    t.print(os);
  }

  if (!gauges.empty()) {
    os << "\nGauges:\n";
    util::TextTable t({"gauge", "value"});
    for (const auto& row : gauges) {
      t.addRow({row.name, util::fmtSci(row.value, 6)});
    }
    t.print(os);
  }
}

}  // namespace nano::obs
