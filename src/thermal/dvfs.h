// Dynamic voltage/frequency scaling (paper Section 2.1: "Transmeta's
// approach dynamically varies the supply voltage when the CPU is not
// heavily loaded"). A workload demands a fraction of peak throughput per
// phase; the governor picks the lowest (f, V) level that still delivers
// it, so the active energy scales by V^2 instead of just idling at full
// voltage. Closed around the same lumped thermal model as the DTM
// throttle, for temperature comparisons.
#pragma once

#include <span>
#include <vector>

#include "thermal/package.h"
#include "thermal/workload.h"

namespace nano::thermal {

/// One operating level: frequency and supply as fractions of nominal.
struct DvfsLevel {
  double freqFraction = 1.0;
  double vddFraction = 1.0;
  /// Dynamic power multiplier at full utilization: f * V^2.
  [[nodiscard]] double powerFactor() const {
    return freqFraction * vddFraction * vddFraction;
  }
};

struct DvfsPolicy {
  /// Levels in any order; the governor picks among them with
  /// pickDvfsLevel. Defaults follow typical V-f pairs (V roughly tracks f).
  std::vector<DvfsLevel> levels = {
      {1.00, 1.00}, {0.80, 0.90}, {0.60, 0.80}, {0.40, 0.70}, {0.20, 0.60}};
  /// Idle power as a fraction of peak, burned whenever the core is not
  /// executing (leakage + clocking at the current voltage, ~ V^2).
  double idleFraction = 0.10;
};

/// The governor's pick: the lowest-power level whose frequency covers
/// `demand` (ties go to the first such level), or the fastest level when
/// none does. `levels` must not be empty. simulateDvfs and the scenario
/// engine's DVFS policy both use it.
const DvfsLevel& pickDvfsLevel(std::span<const DvfsLevel> levels,
                               double demand);

struct DvfsResult {
  double energy = 0.0;              ///< J over the trace
  double energyFullSpeed = 0.0;     ///< J for run-at-max + idle ("race to idle")
  double avgPower = 0.0;            ///< W
  double throughputDelivered = 0.0; ///< fraction of demanded work completed
  double maxTemperature = 0.0;      ///< K (closed over the package)
  [[nodiscard]] double energySavings() const {
    return 1.0 - energy / energyFullSpeed;
  }
};

/// Simulate the governor over `demand` (phases of utilization demand in
/// [0,1] of peak throughput). `worstCasePower` is the full-speed active
/// power; thermal closure uses `package`/`tAmbient`.
DvfsResult simulateDvfs(const ThermalPackage& package, const PowerTrace& demand,
                        double worstCasePower, double tAmbient,
                        const DvfsPolicy& policy = {});

}  // namespace nano::thermal
