// Wake-up current transients (paper Section 4): leaving a sleep/standby
// state ramps the supply current from the idle level to full draw; the
// inductance of the bump array turns dI/dt into supply noise. More bumps
// (the minimum pitch) mean a lower-inductance path; on-die decoupling
// absorbs the front of the ramp.
#pragma once

#include "tech/itrs.h"

namespace nano::powergrid {

struct TransientConfig {
  double wakeTime = 5e-9;          ///< s, standby-exit current ramp
  double idleFraction = 0.05;      ///< standby current / full current
  double bumpInductance = 100e-12; ///< H per bump (bump + via stack)
  double planeInductance = 0.02e-12;  ///< H, package plane spreading floor
  /// Supply-noise budget as a fraction of Vdd (for the decap sizing).
  double noiseBudgetFraction = 0.05;
};

struct TransientReport {
  int vddBumps = 0;
  double deltaCurrent = 0.0;         ///< A, idle -> active step
  double dIdt = 0.0;                 ///< A/s
  double effectiveInductance = 0.0;  ///< H
  double noiseVoltage = 0.0;         ///< V = L * dI/dt
  double noiseFraction = 0.0;        ///< of Vdd
  /// On-die decap needed to carry the ramp within the noise budget:
  /// C >= dI * t_wake / (2 * V_budget).
  double decapNeeded = 0.0;          ///< F
  bool withinBudget = false;
};

/// Analyze the wake-up transient with `vddBumps` Vdd connections.
TransientReport wakeupTransient(const tech::TechNode& node, int vddBumps,
                                const TransientConfig& config = {});

/// Vdd bump count at the minimum manufacturable pitch (one Vdd bump per
/// 2x2 pad cell: Vdd/GND/2 signals).
int minPitchVddBumps(const tech::TechNode& node);

}  // namespace nano::powergrid
