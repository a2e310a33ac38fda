#include "thermal/dtm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "thermal/validate.h"

namespace nano::thermal {

DtmResult simulateDtm(const ThermalPackage& package, const PowerTrace& trace,
                      double worstCasePower, double tAmbient,
                      const DtmPolicy& policy, double dt, int traceStride) {
  const ThermalInputCheck check = validateDtmInputs(
      package, trace, worstCasePower, tAmbient, policy, dt, traceStride);
  if (!check.ok()) {
    throw std::invalid_argument("simulateDtm: " + check.describe());
  }
  const double duration = trace.totalDuration();

  // Power multiplier while throttled. Vdd scaling assumes V tracks f
  // linearly in the scaled region (power ~ f * V^2 => factor^3).
  const double throttledPowerFactor =
      policy.kind == ThrottleKind::ClockOnly
          ? policy.throttleFactor
          : std::pow(policy.throttleFactor, 3.0);

  DtmResult result;
  double temperature = tAmbient;
  bool throttled = false;
  double pendingChangeAt = -1.0;  // sensor delay modeling
  bool pendingState = false;

  double tempSum = 0.0;
  double cycleSum = 0.0;
  double throttledTime = 0.0;
  long steps = 0;
  PowerTrace::Cursor demand(trace);

  for (double t = 0.0; t < duration; t += dt, ++steps) {
    // Sensor comparison (with hysteresis); actuation after sensorDelay.
    const bool sensorWantsThrottle =
        throttled ? (temperature > policy.tripTemperature - policy.hysteresis)
                  : (temperature > policy.tripTemperature);
    if (policy.enabled && sensorWantsThrottle != throttled) {
      if (pendingChangeAt < 0 || pendingState != sensorWantsThrottle) {
        pendingChangeAt = t + policy.sensorDelay;
        pendingState = sensorWantsThrottle;
      }
      if (t >= pendingChangeAt) {
        throttled = pendingState;
        pendingChangeAt = -1.0;
      }
    } else {
      pendingChangeAt = -1.0;
    }

    const double demandFraction = demand.at(t);
    const double powerFactor = throttled ? throttledPowerFactor : 1.0;
    const double power = demandFraction * worstCasePower * powerFactor;

    temperature = package.step(temperature, power, tAmbient, dt);

    tempSum += temperature;
    cycleSum += throttled ? policy.throttleFactor : 1.0;
    if (throttled) throttledTime += dt;
    result.maxTemperature = std::max(result.maxTemperature, temperature);
    result.maxPower = std::max(result.maxPower, power);

    if (steps % traceStride == 0) {
      result.timeS.push_back(t);
      result.temperatureK.push_back(temperature);
      result.powerW.push_back(power);
    }
  }

  result.avgTemperature = tempSum / static_cast<double>(steps);
  result.throughputFraction = cycleSum / static_cast<double>(steps);
  result.throttledFraction = throttledTime / duration;
  return result;
}

DtmPolicy defaultPolicyFor(const tech::TechNode& node) {
  DtmPolicy policy;
  policy.tripTemperature = node.tjMax - 2.0;  // trip 2 K under the limit
  policy.hysteresis = 3.0;
  policy.throttleFactor = 0.5;  // Pentium 4-style clock duty modulation
  policy.kind = ThrottleKind::ClockOnly;
  return policy;
}

}  // namespace nano::thermal
