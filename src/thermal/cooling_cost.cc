#include "thermal/cooling_cost.h"

namespace nano::thermal {

double coolingCostUsd(double power, double tjMax, double tAmbient) {
  return cheapestSolutionFor(power, tjMax, tAmbient).cost(power);
}

DtmCostSavings dtmCostSavings(double theoreticalPower, double tjMax,
                              double tAmbient, double fraction) {
  DtmCostSavings s;
  s.theoreticalPower = theoreticalPower;
  s.effectivePower = fraction * theoreticalPower;
  s.thetaJaTheoretical = requiredThetaJa(theoreticalPower, tjMax, tAmbient);
  s.thetaJaEffective = requiredThetaJa(s.effectivePower, tjMax, tAmbient);
  s.costTheoreticalUsd = coolingCostUsd(theoreticalPower, tjMax, tAmbient);
  s.costEffectiveUsd = coolingCostUsd(s.effectivePower, tjMax, tAmbient);
  return s;
}

}  // namespace nano::thermal
