// Exposition surface for the MetricsRegistry: Prometheus text format for
// scrapers and dashboards, and a JSON stats snapshot with optional
// delta-since-last-snapshot counters for live introspection (the `stats`
// svc request kind and `nanod --stats`).
#pragma once

#include <ostream>
#include <string>
#include <string_view>

namespace nano::obs {

/// Registry name -> Prometheus metric name: prefixed with "nano_", every
/// character outside [a-zA-Z0-9_] replaced by '_' (so "svc/phase/eval"
/// becomes "nano_svc_phase_eval").
[[nodiscard]] std::string prometheusName(std::string_view name);

/// The process registry in Prometheus text exposition format 0.0.4.
/// Counters gain the "_total" suffix; timers and spans are rendered as
/// summaries with quantile 0.5/0.9/0.99/0.999 plus _sum and _count series.
void exportPrometheus(std::ostream& os);

/// One-line JSON stats snapshot of the process registry:
/// {"delta":…,"counters":{…},"gauges":{…},"timers":{…},"spans":{…}}.
/// With delta=true, counters report the increase since the previous
/// baseline and the baseline advances to the current values.
void exportStatsJson(std::ostream& os, bool delta);

/// Reset the delta baseline to the registry's current counter values.
void resetStatsBaseline();

}  // namespace nano::obs
