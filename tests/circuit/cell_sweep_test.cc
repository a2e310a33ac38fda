// Full-corner sweep of the cell characterizer: every node x function x
// Vth x Vdd corner must produce physically ordered numbers. Guards the
// library against regressions anywhere on the roadmap.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/library.h"
#include "util/units.h"

namespace nano::circuit {
namespace {

using namespace nano::units;

class CornerSweep
    : public ::testing::TestWithParam<std::tuple<int, CellFunction>> {};

TEST_P(CornerSweep, AllCornersPhysicallyOrdered) {
  const auto [feature, function] = GetParam();
  const CellCharacterizer cz =
      Library(tech::nodeByFeature(feature)).characterizer();

  const Cell lvtHi = cz.characterize(function, 2.0, VthClass::Low, VddDomain::High);
  const Cell hvtHi = cz.characterize(function, 2.0, VthClass::High, VddDomain::High);
  const Cell lvtLo = cz.characterize(function, 2.0, VthClass::Low, VddDomain::Low);
  const Cell hvtLo = cz.characterize(function, 2.0, VthClass::High, VddDomain::Low);

  // All positive.
  for (const Cell* c : {&lvtHi, &hvtHi, &lvtLo, &hvtLo}) {
    EXPECT_GT(c->inputCap, 0.0);
    EXPECT_GT(c->driveResistance, 0.0);
    EXPECT_GT(c->selfCap, 0.0);
    EXPECT_GT(c->leakage, 0.0);
    EXPECT_GT(c->area, 0.0);
  }
  // Speed: LVT faster than HVT at both supplies; high Vdd faster than low.
  EXPECT_LT(lvtHi.driveResistance, hvtHi.driveResistance);
  EXPECT_LT(lvtLo.driveResistance, hvtLo.driveResistance);
  EXPECT_LT(lvtHi.driveResistance, lvtLo.driveResistance);
  // Leakage: HVT << LVT; low Vdd <= high Vdd (DIBL).
  EXPECT_LT(hvtHi.leakage, 0.3 * lvtHi.leakage);
  EXPECT_LE(lvtLo.leakage, lvtHi.leakage);
  // Energy per transition: low domain cheaper for the same load.
  const double load = 5 * fF;
  EXPECT_LT(lvtLo.switchingEnergy(load), lvtHi.switchingEnergy(load));
  // Vth flavor does not change footprint or input load.
  EXPECT_DOUBLE_EQ(lvtHi.area, hvtHi.area);
  EXPECT_DOUBLE_EQ(lvtHi.inputCap, hvtHi.inputCap);
}

TEST_P(CornerSweep, DriveScalingExact) {
  const auto [feature, function] = GetParam();
  const CellCharacterizer cz =
      Library(tech::nodeByFeature(feature)).characterizer();
  const Cell x1 = cz.characterize(function, 1.0, VthClass::Low, VddDomain::High);
  const Cell x3 = cz.characterize(function, 3.0, VthClass::Low, VddDomain::High);
  EXPECT_NEAR(x3.inputCap / x1.inputCap, 3.0, 1e-9);
  EXPECT_NEAR(x1.driveResistance / x3.driveResistance, 3.0, 1e-9);
  EXPECT_NEAR(x3.selfCap / x1.selfCap, 3.0, 1e-9);
  EXPECT_NEAR(x3.leakage / x1.leakage, 3.0, 1e-9);
  // Equal-drive delay at equal load per unit of drive: the intrinsic
  // (parasitic) delay is drive-independent.
  EXPECT_NEAR(x1.delay(0.0), x3.delay(0.0), 1e-9 * x1.delay(0.0));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CornerSweep,
    ::testing::Combine(::testing::Values(180, 100, 50, 35),
                       ::testing::Values(CellFunction::Inv,
                                         CellFunction::Nand2,
                                         CellFunction::Nor3,
                                         CellFunction::Xor2)));

TEST(CornerSweepExtra, Fo4ConsistencyWithGateModel) {
  // The library's unit inverter must agree with the standalone gate model
  // it is built from: an FO4-style delay computed through Cell matches the
  // InverterModel-based estimate within the parasitic-accounting slack.
  for (int f : {100, 35}) {
    const auto& node = tech::nodeByFeature(f);
    const CellCharacterizer cz = Library(node).characterizer();
    const Cell inv = cz.characterize(CellFunction::Inv, 1.0, VthClass::Low,
                                     VddDomain::High);
    const double cellFo4 = inv.delay(4.0 * inv.inputCap);
    const double vth = device::solveVthForIon(node, node.ionTarget);
    const device::InverterModel model(node, vth, node.vdd,
                                      device::GateGeometry{2.0, 4.0});
    const double modelFo4 = model.fo4Delay();
    EXPECT_NEAR(cellFo4, modelFo4, 0.35 * modelFo4) << f;
  }
}

TEST(CornerSweepExtra, LeakagePerCellTracksEq4AcrossNodes) {
  // The inverter cell's leakage must scale across nodes like Vdd * Ioff *
  // width from the device model (same physics, two code paths).
  double prevRatio = -1.0;
  for (int f : {100, 50}) {
    const auto& node = tech::nodeByFeature(f);
    const CellCharacterizer cz = Library(node).characterizer();
    const Cell inv = cz.characterize(CellFunction::Inv, 1.0, VthClass::Low,
                                     VddDomain::High);
    const double vth = device::solveVthForIon(node, node.ionTarget);
    const device::InverterModel model(node, vth, node.vdd,
                                      device::GateGeometry{2.0, 4.0});
    const double ratio = inv.leakage / model.leakagePower();
    EXPECT_NEAR(ratio, 1.0, 0.01) << f;  // INV leakage factor is 1.0
    if (prevRatio > 0) {
      EXPECT_NEAR(ratio, prevRatio, 0.01);
    }
    prevRatio = ratio;
  }
}

}  // namespace
}  // namespace nano::circuit
