#include "thermal/package.h"

#include <gtest/gtest.h>

#include <cmath>

#include "thermal/cooling_cost.h"
#include "util/units.h"

namespace nano::thermal {
namespace {

using namespace nano::units;

TEST(ThermalPackage, SteadyStateEquation1) {
  // Eq. (1): theta_ja = (Tchip - Tambient) / Pchip.
  ThermalPackage pkg(0.6);
  const double tj = pkg.junctionTemperature(90.0, fromCelsius(45.0));
  EXPECT_NEAR(toCelsius(tj), 45.0 + 0.6 * 90.0, 1e-9);
}

TEST(ThermalPackage, MaxPowerInverse) {
  // Eq. (1) solved for Pchip: 80 W is the most a 0.5 K/W package carries
  // from 45 C ambient to an 85 C junction.
  ThermalPackage pkg(0.5);
  EXPECT_NEAR(toCelsius(pkg.junctionTemperature(80.0, fromCelsius(45.0))),
              85.0, 1e-9);
}

TEST(ThermalPackage, StepConvergesToSteadyState) {
  ThermalPackage pkg(0.5, 10.0);
  double t = fromCelsius(45.0);
  for (int i = 0; i < 200; ++i) t = pkg.step(t, 100.0, fromCelsius(45.0), 1.0);
  EXPECT_NEAR(t, pkg.junctionTemperature(100.0, fromCelsius(45.0)), 0.01);
}

TEST(ThermalPackage, StepIsExactExponential) {
  ThermalPackage pkg(0.5, 10.0);  // tau = 5 s
  const double ta = fromCelsius(45.0);
  const double t1 = pkg.step(ta, 100.0, ta, 5.0);  // one time constant
  const double tFinal = pkg.junctionTemperature(100.0, ta);
  EXPECT_NEAR((t1 - ta) / (tFinal - ta), 1.0 - std::exp(-1.0), 1e-9);
}

TEST(ThermalPackage, StepStableForHugeDt) {
  ThermalPackage pkg(0.5, 10.0);
  const double ta = fromCelsius(45.0);
  const double t = pkg.step(ta, 100.0, ta, 1e6);
  EXPECT_NEAR(t, pkg.junctionTemperature(100.0, ta), 1e-6);
}

TEST(ThermalPackage, RejectsBadParams) {
  EXPECT_THROW(ThermalPackage(0.0), std::invalid_argument);
  EXPECT_THROW(ThermalPackage(0.5, -1.0), std::invalid_argument);
}

TEST(RequiredThetaJa, PaperNumbers) {
  // 180 nm class: 90 W, Tj 100 C, Ta 45 C -> ~0.61 K/W (in the paper's
  // quoted 0.6-1.0 range).
  EXPECT_NEAR(requiredThetaJa(90.0, fromCelsius(100.0), fromCelsius(45.0)),
              0.61, 0.01);
  EXPECT_THROW(requiredThetaJa(0.0, 1.0, 0.0), std::invalid_argument);
}

TEST(Catalog, OrderedWeakToStrong) {
  const auto& cat = packagingCatalog();
  ASSERT_GE(cat.size(), 4u);
  for (std::size_t i = 1; i < cat.size(); ++i) {
    EXPECT_LT(cat[i].thetaJa, cat[i - 1].thetaJa);
    EXPECT_GT(cat[i].cost(100.0), cat[i - 1].cost(100.0));
  }
}

TEST(Catalog, RefrigerationCostsAboutOneDollarPerWatt) {
  const auto& fridge = packagingCatalog().back();
  EXPECT_DOUBLE_EQ(fridge.costPerWattUsd, 1.0);
  EXPECT_GT(fridge.cost(100.0) - fridge.cost(0.0), 99.0);
}

TEST(CheapestSolution, PicksWeakestSufficient) {
  const auto& sol =
      cheapestSolutionFor(40.0, fromCelsius(85.0), fromCelsius(45.0));
  // 40 W needs theta <= 1.0: the passive heatsink suffices.
  EXPECT_EQ(sol.name, "passive heatsink");
}

TEST(CheapestSolution, ThrowsWhenNothingHolds) {
  EXPECT_THROW(cheapestSolutionFor(1000.0, fromCelsius(85.0), fromCelsius(45.0)),
               std::runtime_error);
}

TEST(CoolingCost, The65To75WattCliff) {
  // Paper anecdote: 65 -> 75 W roughly triples cooling cost (heat pipes).
  const double c65 = coolingCostUsd(65.0, fromCelsius(85.0), fromCelsius(45.0));
  const double c75 = coolingCostUsd(75.0, fromCelsius(85.0), fromCelsius(45.0));
  EXPECT_NEAR(c75 / c65, 3.0, 0.25);
}

TEST(ThetaJaRelief, TwentyFivePercentGivesThirtyThree) {
  // Paper: a 25 % effective power reduction allows 33 % higher theta_ja.
  const auto s = dtmCostSavings(100.0, fromCelsius(85.0), fromCelsius(45.0));
  EXPECT_NEAR(s.thetaJaEffective / s.thetaJaTheoretical, 4.0 / 3.0, 1e-12);
}

TEST(DtmCostSavings, EffectiveRatingCheaper) {
  const auto s =
      dtmCostSavings(100.0, fromCelsius(85.0), fromCelsius(45.0));
  EXPECT_NEAR(s.effectivePower, 75.0, 1e-9);
  EXPECT_NEAR(s.thetaJaEffective / s.thetaJaTheoretical, 4.0 / 3.0, 1e-9);
  EXPECT_GT(s.costRatio(), 1.0);
}

}  // namespace
}  // namespace nano::thermal
