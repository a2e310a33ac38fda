#include "thermal/package.h"

#include <cmath>
#include <stdexcept>

namespace nano::thermal {

ThermalPackage::ThermalPackage(double thetaJa, double heatCapacity)
    : thetaJa_(thetaJa), heatCapacity_(heatCapacity) {
  if (thetaJa <= 0 || heatCapacity <= 0) {
    throw std::invalid_argument("ThermalPackage: non-positive parameter");
  }
}

double ThermalPackage::junctionTemperature(double power, double tAmbient) const {
  return tAmbient + thetaJa_ * power;
}

double ThermalPackage::step(double tJunction, double power, double tAmbient,
                            double dt) const {
  return stepWithDecay(tJunction, power, tAmbient, decay(dt));
}

double ThermalPackage::decay(double dt) const {
  return std::exp(-dt / timeConstant());
}

double ThermalPackage::stepWithDecay(double tJunction, double power,
                                     double tAmbient, double decay) const {
  // Exact solution of the linear first-order ODE over dt (unconditionally
  // stable for any step size).
  const double tFinal = junctionTemperature(power, tAmbient);
  return tFinal + (tJunction - tFinal) * decay;
}

double requiredThetaJa(double power, double tjMax, double tAmbient) {
  if (power <= 0) throw std::invalid_argument("requiredThetaJa: power <= 0");
  return (tjMax - tAmbient) / power;
}

const std::vector<PackagingSolution>& packagingCatalog() {
  static const std::vector<PackagingSolution> kCatalog = {
      {"passive heatsink", 1.00, 5.0, 0.0},
      {"forced-air heatsink + fan", 0.60, 15.0, 0.0},
      {"heat pipe + fan", 0.52, 45.0, 0.0},
      {"high-performance air (large fin stack)", 0.40, 90.0, 0.0},
      {"liquid cooling loop", 0.25, 200.0, 0.0},
      // Vapor-compression refrigeration: ~ $1 per watt cooled (paper 2.1).
      {"vapor-compression refrigeration", 0.12, 300.0, 1.0},
  };
  return kCatalog;
}

const PackagingSolution& cheapestSolutionFor(double power, double tjMax,
                                             double tAmbient) {
  const double need = requiredThetaJa(power, tjMax, tAmbient);
  for (const auto& sol : packagingCatalog()) {
    if (sol.thetaJa <= need) return sol;
  }
  throw std::runtime_error("cheapestSolutionFor: no packaging solution holds " +
                           std::to_string(power) + " W");
}

}  // namespace nano::thermal
