// Cooling-cost analysis (paper Section 2.1): what packaging costs as a
// function of the power a design must be rated for, and how much dynamic
// thermal management saves by rating for the *effective* rather than the
// theoretical worst case.
#pragma once

#include "thermal/package.h"

namespace nano::thermal {

/// The paper's quoted ratio of effective worst-case power (power-hungry
/// real applications) to theoretical worst-case power (synthetic virus
/// code): about 75 % [7,8].
inline constexpr double kEffectiveWorstCaseFraction = 0.75;

/// Cooling cost (cheapest catalog solution) for a design rated at `power`.
double coolingCostUsd(double power, double tjMax, double tAmbient);

/// Cost comparison of rating for theoretical vs effective worst case.
struct DtmCostSavings {
  double theoreticalPower = 0.0;
  double effectivePower = 0.0;
  double thetaJaTheoretical = 0.0;  ///< required K/W without DTM
  double thetaJaEffective = 0.0;    ///< required K/W with DTM
  double costTheoreticalUsd = 0.0;
  double costEffectiveUsd = 0.0;
  [[nodiscard]] double costRatio() const {
    return costTheoreticalUsd / costEffectiveUsd;
  }
};
DtmCostSavings dtmCostSavings(double theoreticalPower, double tjMax,
                              double tAmbient,
                              double fraction = kEffectiveWorstCaseFraction);

}  // namespace nano::thermal
