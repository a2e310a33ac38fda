#include "power/standby.h"

#include <gtest/gtest.h>

#include <cmath>

namespace nano::power {
namespace {

device::Mosfet solvedDevice(int feature) {
  const auto& node = tech::nodeByFeature(feature);
  return device::Mosfet::fromNode(
      node, device::solveVthForIon(node, node.ionTarget), node.vdd);
}

TEST(SubthresholdCurrent, MatchesIoffAtZeroGate) {
  const auto dev = solvedDevice(100);
  const double vdd = dev.params().vddReference;
  // At vgs = 0 and full vds the drain factor is ~1 and we recover Eq. (4).
  EXPECT_NEAR(subthresholdCurrent(dev, 0.0, vdd), dev.ioff(vdd),
              1e-6 * dev.ioff(vdd));
}

TEST(SubthresholdCurrent, OneDecadePerSwing) {
  const auto dev = solvedDevice(100);
  const double s = dev.subthresholdSwing();
  const double vdd = dev.params().vddReference;
  EXPECT_NEAR(subthresholdCurrent(dev, 0.0, vdd) /
                  subthresholdCurrent(dev, -s, vdd),
              10.0, 1e-6);
}

TEST(SubthresholdCurrent, VanishesAtZeroVds) {
  const auto dev = solvedDevice(100);
  EXPECT_NEAR(subthresholdCurrent(dev, 0.0, 0.0), 0.0, 1e-12);
}

TEST(StackEffect, IntermediateNodeSelfBiases) {
  // The stack node floats a few tens of mV above ground — enough source
  // degeneration to choke the top device.
  const auto dev = solvedDevice(100);
  const double vx = stackIntermediateVoltage(dev);
  EXPECT_GT(vx, 0.01);
  EXPECT_LT(vx, 0.15);
}

TEST(StackEffect, CurrentsBalanceAtSolution) {
  const auto dev = solvedDevice(70);
  const double vdd = dev.params().vddReference;
  const double vx = stackIntermediateVoltage(dev);
  EXPECT_NEAR(subthresholdCurrent(dev, -vx, vdd - vx),
              subthresholdCurrent(dev, 0.0, vx),
              1e-6 * subthresholdCurrent(dev, 0.0, vx));
}

TEST(StackEffect, TwoStackLeaksSeveralTimesLess) {
  // Paper [38]: stacks cut leakage without sleep transistors. Literature
  // puts the 2-stack factor at ~3-10x.
  for (int f : {180, 100, 50, 35}) {
    const double factor = stackLeakageFactor(solvedDevice(f), 2);
    EXPECT_GT(factor, 0.1) << f;
    EXPECT_LT(factor, 0.45) << f;
  }
}

TEST(StackEffect, DeeperStacksLeakMonotonicallyLess) {
  const auto dev = solvedDevice(100);
  const double s1 = stackLeakageFactor(dev, 1);
  const double s2 = stackLeakageFactor(dev, 2);
  const double s3 = stackLeakageFactor(dev, 3);
  EXPECT_DOUBLE_EQ(s1, 1.0);
  EXPECT_LT(s2, s1);
  EXPECT_LT(s3, s2);
  EXPECT_GT(s3, 0.0);
}

TEST(StackEffect, RejectsBadDepth) {
  EXPECT_THROW(stackLeakageFactor(solvedDevice(100), 0),
               std::invalid_argument);
}

TEST(MixedVthStack, SubstantialLeakageCutMinimalDelay) {
  // Paper Section 3.3: different thresholds inside a cell's stack give
  // "fairly substantial leakage savings with minimal delay penalties".
  const auto& node = tech::nodeByFeature(35);
  const double vth = device::solveVthForIon(node, node.ionTarget);
  const MixedStackReport rep = mixedVthStack(node, vth, vth + 0.1);
  EXPECT_LT(rep.leakageVsAllLow, 0.2);   // > 5x leakage cut
  EXPECT_LT(rep.delayVsAllLow, 1.30);    // < 30 % pull-down penalty
  EXPECT_GT(rep.delayVsAllLow, 1.0);
}

TEST(MixedVthStack, LargerOffsetMoreSavingMoreDelay) {
  const auto& node = tech::nodeByFeature(70);
  const double vth = device::solveVthForIon(node, node.ionTarget);
  const MixedStackReport small = mixedVthStack(node, vth, vth + 0.05);
  const MixedStackReport big = mixedVthStack(node, vth, vth + 0.15);
  EXPECT_LT(big.leakageVsAllLow, small.leakageVsAllLow);
  EXPECT_GT(big.delayVsAllLow, small.delayVsAllLow);
}

MtcmosBlock referenceBlock(const tech::TechNode& node, double vth) {
  MtcmosBlock block;
  block.totalDeviceWidth = 1e-3;  // 1 mm of NMOS width
  // ~2 % of the block switching simultaneously at full drive.
  block.peakCurrent = 0.02 * block.totalDeviceWidth * node.ionTarget;
  block.vthLow = vth;
  return block;
}

TEST(Mtcmos, VirtuallyEliminatesStandbyLeakage) {
  // Paper Section 3.2.1: MTCMOS "virtually eliminates leakage current in
  // idle states".
  const auto& node = tech::nodeByFeature(50);
  const double vth = device::solveVthForIon(node, node.ionTarget);
  const auto d = sizeSleepTransistor(node, referenceBlock(node, vth));
  EXPECT_GT(d.standbyReduction(), 0.99);
}

TEST(Mtcmos, DelayPenaltyTradesAgainstArea) {
  // "As it is in series, it adds delay, which can be reduced by
  // increasing its area."
  const auto& node = tech::nodeByFeature(70);
  const double vth = device::solveVthForIon(node, node.ionTarget);
  const MtcmosBlock block = referenceBlock(node, vth);
  const auto tight = sizeSleepTransistor(node, block, 0.02);
  const auto loose = sizeSleepTransistor(node, block, 0.10);
  EXPECT_GT(tight.width, loose.width);
  EXPECT_GT(tight.areaOverhead, loose.areaOverhead);
  EXPECT_NEAR(tight.width / loose.width, 5.0, 0.1);  // ~1/penalty
}

TEST(Mtcmos, NoActiveLeakageReduction) {
  // The technique only helps in standby: active leakage is the block's.
  const auto& node = tech::nodeByFeature(50);
  const double vth = device::solveVthForIon(node, node.ionTarget);
  const auto d = sizeSleepTransistor(node, referenceBlock(node, vth));
  const auto dev = device::Mosfet::fromNode(node, vth, node.vdd);
  EXPECT_NEAR(d.activeLeakage, dev.ioff() * 1e-3, 1e-9);
}

TEST(Mtcmos, AreaOverheadModest) {
  const auto& node = tech::nodeByFeature(70);
  const double vth = device::solveVthForIon(node, node.ionTarget);
  const auto d = sizeSleepTransistor(node, referenceBlock(node, vth));
  EXPECT_LT(d.areaOverhead, 0.35);
  EXPECT_GT(d.areaOverhead, 0.005);
}

TEST(Mtcmos, Rejections) {
  const auto& node = tech::nodeByFeature(70);
  MtcmosBlock block;
  EXPECT_THROW(sizeSleepTransistor(node, block, 0.0), std::invalid_argument);
  EXPECT_THROW(sizeSleepTransistor(node, block, 1.0), std::invalid_argument);
}

TEST(BodyBias, ReductionFollowsEq4) {
  const auto& node = tech::nodeByFeature(180);
  const double expected =
      std::pow(10.0, node.bodyEffect * 1.0 / node.subthresholdSwing);
  EXPECT_NEAR(bodyBiasLeakageReduction(node, 1.0), expected, 1e-9);
}

TEST(BodyBias, LeverShrinksWithScaling) {
  // The paper's objection: "body bias is less effective at controlling
  // Vth in scaled devices".
  double prev = 1e9;
  for (int f : tech::roadmapFeatures()) {
    const double r = bodyBiasLeakageReduction(tech::nodeByFeature(f), 1.0);
    EXPECT_LT(r, prev) << f;
    prev = r;
  }
  EXPECT_GT(bodyBiasLeakageReduction(tech::nodeByFeature(180), 1.0), 100.0);
  EXPECT_LT(bodyBiasLeakageReduction(tech::nodeByFeature(35), 1.0), 10.0);
}

TEST(BodyBias, RejectsNegativeBias) {
  EXPECT_THROW(bodyBiasLeakageReduction(tech::nodeByFeature(100), -0.5),
               std::invalid_argument);
}

TEST(StackSolveChecked, ConvergedDiagnosticsMatchThrowingSolve) {
  const auto dev = solvedDevice(100);
  const StackSolveResult r = stackIntermediateVoltageChecked(dev, dev);
  EXPECT_TRUE(r.diag.ok());
  EXPECT_GT(r.diag.iterations, 0);
  EXPECT_STREQ(r.diag.kernel, "power/stack_vx");
  EXPECT_DOUBLE_EQ(r.vx, stackIntermediateVoltage(dev, dev));
  // The intermediate node sits strictly inside the rail.
  EXPECT_GT(r.vx, 0.0);
  EXPECT_LT(r.vx, dev.params().vddReference);
}

TEST(LinearConductance, PositiveAndIncreasingInVgs) {
  const auto dev = solvedDevice(100);
  const double g1 = dev.linearConductance(0.8);
  const double g2 = dev.linearConductance(1.2);
  EXPECT_GT(g1, 0.0);
  EXPECT_GT(g2, g1);
}

}  // namespace
}  // namespace nano::power
