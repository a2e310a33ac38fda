#include "thermal/validate.h"

#include <cmath>
#include <sstream>

namespace nano::thermal {
namespace {

bool finitePositive(double x) { return std::isfinite(x) && x > 0.0; }

ThermalInputCheck fail(ThermalInputStatus status, const std::string& message) {
  return {status, message};
}

std::string num(double x) {
  std::ostringstream out;
  out << x;
  return out.str();
}

ThermalInputCheck checkCommon(const ThermalPackage& package,
                              const PowerTrace& trace, double worstCasePower,
                              double tAmbient, const char* traceName) {
  if (!finitePositive(package.thetaJa()) ||
      !finitePositive(package.heatCapacity())) {
    return fail(ThermalInputStatus::BadPackage,
                "package thetaJa/heatCapacity must be positive and finite");
  }
  if (!finitePositive(worstCasePower)) {
    return fail(ThermalInputStatus::BadPackage,
                "worstCasePower must be positive and finite, got " +
                    num(worstCasePower));
  }
  if (!finitePositive(tAmbient)) {
    return fail(ThermalInputStatus::BadPackage,
                "tAmbient must be positive and finite (K), got " +
                    num(tAmbient));
  }
  if (!(trace.totalDuration() > 0.0)) {
    return fail(ThermalInputStatus::EmptyTrace,
                std::string(traceName) + " trace has no duration");
  }
  return {};
}

}  // namespace

const char* thermalInputStatusName(ThermalInputStatus status) {
  switch (status) {
    case ThermalInputStatus::Ok: return "ok";
    case ThermalInputStatus::BadTimeStep: return "bad-time-step";
    case ThermalInputStatus::EmptyTrace: return "empty-trace";
    case ThermalInputStatus::BadPolicy: return "bad-policy";
    case ThermalInputStatus::BadPackage: return "bad-package";
  }
  return "unknown";
}

std::string ThermalInputCheck::describe() const {
  if (ok()) return "ok";
  return std::string(thermalInputStatusName(status)) + ": " + message;
}

ThermalInputCheck validateDtmInputs(const ThermalPackage& package,
                                    const PowerTrace& trace,
                                    double worstCasePower, double tAmbient,
                                    const DtmPolicy& policy, double dt,
                                    int traceStride) {
  if (!finitePositive(dt)) {
    return fail(ThermalInputStatus::BadTimeStep,
                "dt must be positive and finite, got " + num(dt));
  }
  if (traceStride < 1) {
    return fail(ThermalInputStatus::BadTimeStep,
                "traceStride must be >= 1, got " + num(traceStride));
  }
  ThermalInputCheck common =
      checkCommon(package, trace, worstCasePower, tAmbient, "power");
  if (!common.ok()) return common;
  if (policy.enabled) {
    if (!std::isfinite(policy.tripTemperature) ||
        policy.tripTemperature <= tAmbient) {
      return fail(ThermalInputStatus::BadPolicy,
                  "tripTemperature " + num(policy.tripTemperature) +
                      " K must exceed ambient " + num(tAmbient) +
                      " K (an enabled sensor would latch throttled)");
    }
    if (!std::isfinite(policy.hysteresis) || policy.hysteresis < 0.0) {
      return fail(ThermalInputStatus::BadPolicy,
                  "hysteresis must be >= 0 K, got " + num(policy.hysteresis));
    }
    if (!std::isfinite(policy.throttleFactor) || policy.throttleFactor <= 0.0 ||
        policy.throttleFactor > 1.0) {
      return fail(ThermalInputStatus::BadPolicy,
                  "throttleFactor must be in (0, 1], got " +
                      num(policy.throttleFactor));
    }
    if (!std::isfinite(policy.sensorDelay) || policy.sensorDelay < 0.0) {
      return fail(ThermalInputStatus::BadPolicy,
                  "sensorDelay must be >= 0 s, got " + num(policy.sensorDelay));
    }
  }
  return {};
}

ThermalInputCheck validateDvfsInputs(const ThermalPackage& package,
                                     const PowerTrace& demand,
                                     double worstCasePower, double tAmbient,
                                     const DvfsPolicy& policy) {
  if (policy.levels.empty()) {
    return fail(ThermalInputStatus::BadPolicy, "DvfsPolicy::levels is empty");
  }
  for (const DvfsLevel& level : policy.levels) {
    if (!std::isfinite(level.freqFraction) || level.freqFraction <= 0.0 ||
        level.freqFraction > 1.5 || !std::isfinite(level.vddFraction) ||
        level.vddFraction <= 0.0 || level.vddFraction > 1.5) {
      return fail(ThermalInputStatus::BadPolicy,
                  "level (f=" + num(level.freqFraction) +
                      ", v=" + num(level.vddFraction) +
                      ") outside (0, 1.5]");
    }
  }
  if (!std::isfinite(policy.idleFraction) || policy.idleFraction < 0.0 ||
      policy.idleFraction > 1.0) {
    return fail(ThermalInputStatus::BadPolicy,
                "idleFraction must be in [0, 1], got " +
                    num(policy.idleFraction));
  }
  return checkCommon(package, demand, worstCasePower, tAmbient, "demand");
}

}  // namespace nano::thermal
