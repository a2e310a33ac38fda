#include "powergrid/irdrop.h"

#include <gtest/gtest.h>

namespace nano::powergrid {
namespace {

TEST(RailMaxDrop, ClosedFormArithmetic) {
  // lambda = q*P*p/V; drop = lambda * (Rs/W) * p^2 / 8.
  const double drop = railMaxDrop(1e-6, 100e-6, 200e-6, 0.05, 1e6, 2.0, 1.0);
  const double lambda = 2.0 * 1e6 * 100e-6 / 1.0;
  EXPECT_NEAR(drop, lambda * (0.05 / 1e-6) * 200e-6 * 200e-6 / 8.0, 1e-12);
}

TEST(RailMaxDrop, InverseInWidth) {
  const double d1 = railMaxDrop(1e-6, 1e-4, 1e-4, 0.05, 1e6, 4.0, 1.0);
  const double d2 = railMaxDrop(2e-6, 1e-4, 1e-4, 0.05, 1e6, 4.0, 1.0);
  EXPECT_NEAR(d1 / d2, 2.0, 1e-9);
  EXPECT_THROW(railMaxDrop(0.0, 1e-4, 1e-4, 0.05, 1e6, 4.0, 1.0),
               std::invalid_argument);
}

TEST(RequiredLinewidth, DropEqualsBudgetAtSolvedWidth) {
  const auto& node = tech::nodeByFeature(50);
  IrDropOptions opt;
  const IrDropReport rep = requiredLinewidth(node, node.minBumpPitch, opt);
  const double sheet = node.metalResistivity / node.globalWireThickness();
  const double drop =
      railMaxDrop(rep.requiredWidth, rep.railPitch, rep.railPitch, sheet,
                  node.powerDensity(), kHotspotFactor, node.vdd);
  EXPECT_NEAR(drop, opt.budgetFraction * node.vdd, 1e-9);
}

TEST(RequiredLinewidth, CubicInPitch) {
  const auto& node = tech::nodeByFeature(35);
  const IrDropReport a = requiredLinewidth(node, 100e-6);
  const IrDropReport b = requiredLinewidth(node, 200e-6);
  EXPECT_NEAR(b.requiredWidth / a.requiredWidth, 8.0, 1e-6);
}

TEST(Figure5, MinPitchStaysManageable) {
  // Paper: even at 35 nm the min-pitch rails are ~16x minimum width and a
  // few percent of routing. Our model: ~10x and < 5 %.
  for (int f : tech::roadmapFeatures()) {
    const IrDropReport rep = minPitchReport(tech::nodeByFeature(f));
    EXPECT_LT(rep.widthOverMin, 25.0) << f;
    EXPECT_LT(rep.routingFraction, 0.06) << f;
  }
}

TEST(Figure5, ItrsPadCountsExplode) {
  // Paper: with ITRS pad counts the required width explodes (>2000x in the
  // paper; our calibration lands in the hundreds) and becomes a large
  // fraction of all routing.
  const IrDropReport rep = itrsPitchReport(tech::nodeByFeature(35));
  EXPECT_GT(rep.widthOverMin, 400.0);
  EXPECT_GT(rep.routingFraction, 0.3);
  EXPECT_GT(rep.widthOverMin /
                minPitchReport(tech::nodeByFeature(35)).widthOverMin,
            50.0);
}

TEST(Figure5, MinPitchTrendRoughlyQuadraticThen35Relaxes) {
  // Paper: "35 nm is less restricted than 50 nm due to a reduction in
  // power density at 35 nm" (the area jumps 15 % while power is flat).
  const double w50 = minPitchReport(tech::nodeByFeature(50)).widthOverMin;
  const double w35 = minPitchReport(tech::nodeByFeature(35)).widthOverMin;
  EXPECT_LE(w35, w50 * 1.05);
  // And the overall trend rises steeply from 180 nm.
  const double w180 = minPitchReport(tech::nodeByFeature(180)).widthOverMin;
  EXPECT_GT(w50 / w180, 2.0);
}

TEST(Figure5, BumpCurrentExceedsItrsCapability) {
  // Paper: ITRS bump current capability is incompatible with a 300 A part
  // on 1500 Vdd bumps.
  const IrDropReport rep = itrsPitchReport(tech::nodeByFeature(35));
  EXPECT_FALSE(rep.bumpCurrentOk);
  EXPECT_GT(rep.bumpCurrent, tech::nodeByFeature(35).bumpCurrentLimit);
}

TEST(Figure5, MeshCrossCheckWithinFactorTwo) {
  // The mesh (with lateral sharing) must land within ~2x of the 1-D
  // closed-form budget at the solved width.
  IrDropOptions opt;
  opt.runMesh = true;
  const IrDropReport rep =
      requiredLinewidth(tech::nodeByFeature(70), 110e-6, opt);
  EXPECT_GT(rep.meshDropFraction, 0.3 * opt.budgetFraction);
  EXPECT_LT(rep.meshDropFraction, 1.2 * opt.budgetFraction);
}

TEST(Figure5, VddBumpCountConsistentWithPitch) {
  const auto& node = tech::nodeByFeature(35);
  const IrDropReport rep = itrsPitchReport(node);
  EXPECT_NEAR(rep.vddBumpCount,
              node.dieArea / (rep.railPitch * rep.railPitch), 1.0);
  // About the paper's 1500 Vdd bumps (we derive ~1100 from the pad pitch).
  EXPECT_GT(rep.vddBumpCount, 700);
  EXPECT_LT(rep.vddBumpCount, 2000);
}

TEST(RequiredLinewidth, RejectsBadPitch) {
  EXPECT_THROW(requiredLinewidth(tech::nodeByFeature(50), 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace nano::powergrid
