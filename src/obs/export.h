// Human-readable run report for the MetricsRegistry (ASCII tables in the
// style of core/report.h): the hierarchical span breakdown, counters,
// gauges, and timer statistics of everything instrumented during the run.
// Machine-readable views are the Prometheus text and `stats` JSON of
// obs/exposition.h.
#pragma once

#include <ostream>

namespace nano::obs {

/// Human-readable run report of the process registry: span tree (indented
/// by nesting), timers, counters, gauges. Prints a hint instead when
/// observability is disabled and nothing was recorded.
void printRunReport(std::ostream& os);

}  // namespace nano::obs
