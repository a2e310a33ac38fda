#include "device/gate_model.h"

#include <gtest/gtest.h>

#include "util/units.h"

namespace nano::device {
namespace {

using namespace nano::units;
using tech::nodeByFeature;

InverterModel makeInverter(int feature) {
  const auto& node = nodeByFeature(feature);
  const double vth = solveVthForIon(node, node.ionTarget);
  return InverterModel(node, vth, node.vdd);
}

TEST(InverterModel, GeometryFollowsFeatureSize) {
  const InverterModel inv = makeInverter(100);
  EXPECT_DOUBLE_EQ(inv.wn(), 4.0 * 100 * nm);
  EXPECT_DOUBLE_EQ(inv.wp(), 8.0 * 100 * nm);
}

TEST(InverterModel, InputCapScalesWithArea) {
  const InverterModel big = makeInverter(180);
  const InverterModel small = makeInverter(35);
  EXPECT_GT(big.inputCap(), small.inputCap());
  // Sane absolute range: a 4x/8x 180 nm inverter is a few fF.
  EXPECT_GT(big.inputCap(), 1.0 * fF);
  EXPECT_LT(big.inputCap(), 20.0 * fF);
}

TEST(InverterModel, OutputCapSmallerThanInput) {
  const InverterModel inv = makeInverter(70);
  EXPECT_LT(inv.outputCap(), inv.inputCap());
  EXPECT_GT(inv.outputCap(), 0.0);
}

TEST(InverterModel, PullUpWeakerPerWidthButWiderDevice) {
  const InverterModel inv = makeInverter(100);
  // Wp = 2 Wn and PMOS factor 0.45: currents are nearly balanced.
  EXPECT_NEAR(inv.driveCurrentP() / inv.driveCurrentN(), 0.9, 0.01);
}

TEST(InverterModel, DelayIncreasesWithLoad) {
  const InverterModel inv = makeInverter(100);
  EXPECT_GT(inv.delay(20 * fF), inv.delay(5 * fF));
}

TEST(InverterModel, DelayPositiveEvenUnloaded) {
  const InverterModel inv = makeInverter(100);
  EXPECT_GT(inv.delay(0.0), 0.0);  // self-loading
}

TEST(InverterModel, Fo4TracksTechnology) {
  // FO4 improves monotonically with scaling and lands in the right decade
  // (tens of ps at 180 nm, below 10 ps at 35 nm).
  double prev = 1.0;
  for (int f : {180, 130, 100, 70, 50, 35}) {
    const double fo4 = makeInverter(f).fo4Delay();
    EXPECT_LT(fo4, prev);
    prev = fo4;
  }
  EXPECT_GT(makeInverter(180).fo4Delay(), 20 * ps);
  EXPECT_LT(makeInverter(180).fo4Delay(), 120 * ps);
  EXPECT_LT(makeInverter(35).fo4Delay(), 10 * ps);
}

TEST(InverterModel, SwitchingEnergyQuadraticInVdd) {
  const auto& node = nodeByFeature(35);
  const double vth = solveVthForIon(node, node.ionTarget);
  const InverterModel hi(node, vth, 0.6);
  const InverterModel lo(node, vth, 0.3);
  const double load = 5 * fF;
  // Same C (load passed explicitly; self-cap identical geometry).
  EXPECT_NEAR(hi.switchingEnergy(load) / lo.switchingEnergy(load), 4.0, 1e-6);
}

TEST(InverterModel, DynamicPowerLinearInActivityAndFreq) {
  const InverterModel inv = makeInverter(70);
  const double load = 5 * fF;
  EXPECT_NEAR(inv.dynamicPower(load, 2 * GHz, 0.2),
              2.0 * inv.dynamicPower(load, 1 * GHz, 0.2), 1e-18);
  EXPECT_NEAR(inv.dynamicPower(load, 1 * GHz, 0.4),
              2.0 * inv.dynamicPower(load, 1 * GHz, 0.2), 1e-18);
}

TEST(InverterModel, LeakagePowerGrowsDownTheRoadmap) {
  EXPECT_GT(makeInverter(50).leakagePower(), makeInverter(180).leakagePower());
}

TEST(InverterModel, RejectsBadVdd) {
  const auto& node = nodeByFeature(100);
  EXPECT_THROW(InverterModel(node, 0.2, 0.0), std::invalid_argument);
}

TEST(ReferenceInverter, MeetsIonTarget) {
  // Figure 1's building block: nominal supply, Vth solved for the target.
  const auto& node = nodeByFeature(70);
  const InverterModel inv(node, solveVthForIon(node, node.ionTarget),
                          node.vdd);
  EXPECT_NEAR(inv.nmos().ion(), node.ionTarget, node.ionTarget * 1e-6);
}

TEST(StaticToDynamicRatio, InverseInActivity) {
  const auto& node = nodeByFeature(70);
  const double hot = fromCelsius(85.0);
  const double r1 = staticToDynamicRatio(node, 0.1, hot);
  const double r2 = staticToDynamicRatio(node, 0.2, hot);
  EXPECT_NEAR(r1 / r2, 2.0, 1e-9);
}

TEST(StaticToDynamicRatio, Figure1Ordering) {
  // At any activity: 50 nm @ 0.6 V >> 50 nm @ 0.7 V, and 70 nm in between
  // or below (the paper's curve ordering).
  const double hot = fromCelsius(85.0);
  const auto& n50 = tech::nodeByFeature(50);
  const auto& n70 = tech::nodeByFeature(70);
  for (double a : {0.01, 0.1, 0.5}) {
    const double r06 = staticToDynamicRatio(n50, a, hot);
    const double r07 = staticToDynamicRatio(n50, a, hot, 0.7);
    const double r70 = staticToDynamicRatio(n70, a, hot);
    EXPECT_GT(r06, r07);
    EXPECT_GT(r07, r70);
  }
}

TEST(StaticToDynamicRatio, ExceedsTenPercentAtLowActivity) {
  // The paper's headline for Figure 1.
  const double hot = fromCelsius(85.0);
  for (int f : {70, 50}) {
    EXPECT_GT(staticToDynamicRatio(tech::nodeByFeature(f), 0.01, hot), 0.1);
  }
}

TEST(StaticToDynamicRatio, RejectsZeroActivity) {
  EXPECT_THROW(staticToDynamicRatio(nodeByFeature(70), 0.0, 300.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace nano::device
