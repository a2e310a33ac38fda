// Human-readable run report for the MetricsRegistry (ASCII tables in the
// style of core/report.h): the hierarchical span breakdown, counters,
// gauges, and timer statistics of everything instrumented during the run.
// Machine-readable views are the Prometheus text and `stats` JSON of
// obs/exposition.h.
#pragma once

#include <ostream>

namespace nano::obs {

class MetricsRegistry;

/// Human-readable run report: span tree (indented by nesting), timers,
/// counters, gauges. Prints a hint instead when observability is disabled
/// and nothing was recorded.
void printRunReport(std::ostream& os);
void printRunReport(std::ostream& os, const MetricsRegistry& registry);

}  // namespace nano::obs
