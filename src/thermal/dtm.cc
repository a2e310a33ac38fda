#include "thermal/dtm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "thermal/validate.h"

namespace nano::thermal {

bool DtmSensor::update(double t, double temperature) {
  // Comparator with hysteresis; a change of its output is scheduled
  // sensorDelay ahead and applies once its time arrives.
  const bool wants =
      throttled_ ? (temperature > policy_.tripTemperature - policy_.hysteresis)
                 : (temperature > policy_.tripTemperature);
  if (policy_.enabled && wants != throttled_) {
    if (pendingChangeAt_ < 0 || pendingState_ != wants) {
      pendingChangeAt_ = t + policy_.sensorDelay;
      pendingState_ = wants;
    }
    if (t >= pendingChangeAt_) {
      throttled_ = pendingState_;
      pendingChangeAt_ = -1.0;
    }
  } else {
    pendingChangeAt_ = -1.0;
  }
  return throttled_;
}

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
  DtmSensor sensor(policy);

  double tempSum = 0.0;
  double cycleSum = 0.0;
  double throttledTime = 0.0;
  long steps = 0;
  PowerTrace::Cursor demand(trace);
  const double decay = package.decay(dt);

  for (double t = 0.0; t < duration; t += dt, ++steps) {
    const bool throttled = sensor.update(t, temperature);
    const double demandFraction = demand.at(t);
    const double powerFactor = throttled ? throttledPowerFactor : 1.0;
    const double power = demandFraction * worstCasePower * powerFactor;

    temperature = package.stepWithDecay(temperature, power, tAmbient, decay);

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
