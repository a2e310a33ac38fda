// Package thermal model (paper Section 2.1): the junction-to-ambient
// thermal resistance equation (1), Tchip = Tambient + theta_ja * Pchip,
// plus a lumped thermal RC for transient simulation and a catalog of
// packaging/cooling solutions.
#pragma once

#include <string>
#include <vector>

#include "tech/itrs.h"

namespace nano::thermal {

/// Steady-state and first-order transient thermal model of die + package.
class ThermalPackage {
 public:
  /// `thetaJa` in K/W; `heatCapacity` is the lumped die+spreader thermal
  /// capacitance in J/K (sets the transient time constant tau = R*C).
  ThermalPackage(double thetaJa, double heatCapacity = 20.0);

  [[nodiscard]] double thetaJa() const { return thetaJa_; }
  [[nodiscard]] double heatCapacity() const { return heatCapacity_; }
  [[nodiscard]] double timeConstant() const { return thetaJa_ * heatCapacity_; }

  /// Eq. (1) solved for Tchip: steady-state junction temperature, K.
  [[nodiscard]] double junctionTemperature(double power, double tAmbient) const;

  /// Advance the junction temperature by `dt` under dissipation `power`:
  /// dT/dt = (P - (T - Ta)/theta) / C. Returns the new temperature, K.
  [[nodiscard]] double step(double tJunction, double power, double tAmbient,
                            double dt) const;

  /// exp(-dt / tau): the factor by which a step of `dt` shrinks the
  /// distance to the steady-state temperature.
  [[nodiscard]] double decay(double dt) const;

  /// step() with its decay(dt) computed once by a fixed-step caller; the
  /// same operations, so the same bits.
  [[nodiscard]] double stepWithDecay(double tJunction, double power,
                                     double tAmbient, double decay) const;

 private:
  double thetaJa_;
  double heatCapacity_;
};

/// Eq. (1) solved for theta_ja: the packaging requirement of a design.
double requiredThetaJa(double power, double tjMax, double tAmbient);

/// One packaging/cooling option with its cost.
struct PackagingSolution {
  std::string name;
  double thetaJa = 0.0;    ///< K/W
  double baseCostUsd = 0.0;
  double costPerWattUsd = 0.0;  ///< e.g. vapor-compression refrigeration ~$1/W
  [[nodiscard]] double cost(double power) const {
    return baseCostUsd + costPerWattUsd * power;
  }
};

/// Catalog ordered from cheapest/weakest to most exotic. Calibrated so the
/// paper's Intel anecdote holds: going from 65 W to 75 W (Tj 85 C, Ta 45 C)
/// crosses the forced-air -> heat-pipe boundary and roughly triples cost.
const std::vector<PackagingSolution>& packagingCatalog();

/// Cheapest catalog solution that holds `tjMax`; throws std::runtime_error
/// if even the most exotic option cannot.
const PackagingSolution& cheapestSolutionFor(double power, double tjMax,
                                             double tAmbient);

}  // namespace nano::thermal
