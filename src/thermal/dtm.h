// Dynamic thermal management simulation (paper Section 2.1): an on-die
// temperature sensor (the Pentium 4-style diode + comparator) feeding a
// throttling controller, closed around the lumped thermal model. Shows how
// DTM lets a design be packaged for the effective rather than the
// theoretical worst case.
#pragma once

#include <vector>

#include "thermal/package.h"
#include "thermal/workload.h"

namespace nano::thermal {

/// What the controller does when the sensor trips.
enum class ThrottleKind {
  ClockOnly,     ///< reduce frequency: power scales ~ f
  ClockAndVdd,   ///< reduce f and Vdd together: power scales ~ f * V^2
};

/// DTM controller policy.
struct DtmPolicy {
  double tripTemperature = 0.0;   ///< K; sensor asserts above this
  double hysteresis = 2.0;        ///< K; deasserts below trip - hysteresis
  double throttleFactor = 0.5;    ///< frequency multiplier while throttled
  ThrottleKind kind = ThrottleKind::ClockOnly;
  double sensorDelay = 100e-6;    ///< s between sensor and actuation
  bool enabled = true;
};

/// The DTM trip sensor: a comparator with hysteresis whose output reaches
/// the clock `sensorDelay` after it changes. Each step the caller feeds it
/// the time and the die temperature and gets back whether the clock runs
/// throttled. simulateDtm and the scenario engine's DTM policy both drive
/// it, each computing `t` its own way.
class DtmSensor {
 public:
  explicit DtmSensor(const DtmPolicy& policy) : policy_(policy) {}

  /// Advance the sensor to time `t` (s) at `temperature` (K); returns the
  /// throttle state for the step that starts at `t`.
  bool update(double t, double temperature);

  /// Forget the latch and any pending actuation.
  void reset() { *this = DtmSensor(policy_); }

  [[nodiscard]] const DtmPolicy& policy() const { return policy_; }

 private:
  DtmPolicy policy_;
  bool throttled_ = false;
  double pendingChangeAt_ = -1.0;  ///< s; < 0 while no change is pending
  bool pendingState_ = false;
};

/// Result of a closed-loop simulation.
struct DtmResult {
  double maxTemperature = 0.0;       ///< K
  double avgTemperature = 0.0;       ///< K
  double throughputFraction = 0.0;   ///< delivered cycles / nominal cycles
  double throttledFraction = 0.0;    ///< fraction of time spent throttled
  double maxPower = 0.0;             ///< W, peak dissipated (post-throttle)
  std::vector<double> timeS;         ///< sampled trace (decimated)
  std::vector<double> temperatureK;
  std::vector<double> powerW;
};

/// Simulate `trace` (fractions of `worstCasePower`) on `package` with the
/// given policy. `tAmbient` in K; `dt` integration step.
DtmResult simulateDtm(const ThermalPackage& package, const PowerTrace& trace,
                      double worstCasePower, double tAmbient,
                      const DtmPolicy& policy, double dt = 20e-6,
                      int traceStride = 50);

/// Convenience: the policy the paper describes — trip just below the
/// node's junction limit, halve the clock.
DtmPolicy defaultPolicyFor(const tech::TechNode& node);

}  // namespace nano::thermal
