// Temperature sweeps of the device and gate models: monotonicity and
// magnitude properties across the roadmap (Figure 1 runs at 85 C; burn-in
// and DTM reasoning need the model to behave over a wide range).
#include <gtest/gtest.h>

#include <cmath>

#include "device/gate_model.h"
#include "device/mosfet.h"
#include "util/units.h"

namespace nano::device {
namespace {

using namespace nano::units;

class TempSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(TempSweep, SwingScalesLinearlyInT) {
  const auto [feature, tC] = GetParam();
  const auto& node = tech::nodeByFeature(feature);
  const double vth = solveVthForIon(node, node.ionTarget);
  const Mosfet dev =
      Mosfet::fromNode(node, vth, node.vdd, GateStack::Poly, fromCelsius(tC));
  EXPECT_NEAR(dev.subthresholdSwing(),
              node.subthresholdSwing * fromCelsius(tC) / 300.0, 1e-9);
}

TEST_P(TempSweep, HotterMeansLeakier) {
  const auto [feature, tC] = GetParam();
  if (tC <= 30.0) GTEST_SKIP() << "needs a hot corner";
  const auto& node = tech::nodeByFeature(feature);
  const double vth = solveVthForIon(node, node.ionTarget);
  const Mosfet cold = Mosfet::fromNode(node, vth, node.vdd);
  const Mosfet hot =
      Mosfet::fromNode(node, vth, node.vdd, GateStack::Poly, fromCelsius(tC));
  EXPECT_GT(hot.ioff(), cold.ioff());
}

TEST_P(TempSweep, TemperatureInversionAtLowVdd) {
  // At high supplies (180-70 nm) mobility loss dominates: hot is slower.
  // At the 0.6 V nodes (50/35 nm) the Vth temperature shift wins and hot
  // devices get FASTER — the temperature-inversion effect of low-voltage
  // design, which the model reproduces.
  const auto [feature, tC] = GetParam();
  if (tC <= 30.0) GTEST_SKIP() << "needs a hot corner";
  const auto& node = tech::nodeByFeature(feature);
  const double vth = solveVthForIon(node, node.ionTarget);
  const InverterModel cold(node, vth, node.vdd);
  const InverterModel hot(node, vth, node.vdd, GateGeometry{},
                          fromCelsius(tC));
  if (node.vdd >= 0.9) {
    EXPECT_GT(hot.fo4Delay(), cold.fo4Delay());
  } else {
    EXPECT_LT(hot.fo4Delay(), cold.fo4Delay());
  }
}

INSTANTIATE_TEST_SUITE_P(
    NodesAndTemps, TempSweep,
    ::testing::Combine(::testing::Values(180, 100, 50, 35),
                       ::testing::Values(25.0, 85.0, 110.0)));

TEST(TempSweep, LeakageMonotoneAcrossWholeRange) {
  const auto& node = tech::nodeByFeature(70);
  const double vth = solveVthForIon(node, node.ionTarget);
  double prev = 0.0;
  for (double tC : {-40.0, 0.0, 25.0, 55.0, 85.0, 110.0, 125.0}) {
    const Mosfet dev =
        Mosfet::fromNode(node, vth, node.vdd, GateStack::Poly, fromCelsius(tC));
    EXPECT_GT(dev.ioff(), prev) << tC;
    prev = dev.ioff();
  }
}

TEST(TempSweep, CoolingRecoversLeakageBudget) {
  // The paper's Section 2.1 note: sub-ambient operation improves leakage
  // (and speed). From 85 C to 0 C the model recovers >5x of Ioff.
  const auto& node = tech::nodeByFeature(50);
  const double vth = solveVthForIon(node, node.ionTarget);
  const Mosfet hot =
      Mosfet::fromNode(node, vth, node.vdd, GateStack::Poly, fromCelsius(85.0));
  const Mosfet cool =
      Mosfet::fromNode(node, vth, node.vdd, GateStack::Poly, fromCelsius(0.0));
  EXPECT_GT(hot.ioff() / cool.ioff(), 5.0);
}

TEST(TempSweep, Figure1RatioGrowsWithTemperature) {
  const auto& node = tech::nodeByFeature(70);
  const double r25 = staticToDynamicRatio(node, 0.1, fromCelsius(25.0));
  const double r85 = staticToDynamicRatio(node, 0.1, fromCelsius(85.0));
  const double r110 = staticToDynamicRatio(node, 0.1, fromCelsius(110.0));
  EXPECT_GT(r85, 2.0 * r25);
  EXPECT_GT(r110, r85);
}

}  // namespace
}  // namespace nano::device
