#include "circuit/cell.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/library.h"
#include "util/units.h"

namespace nano::circuit {
namespace {

using namespace nano::units;

CellCharacterizer charzr() {
  return Library(tech::nodeByFeature(100)).characterizer();
}

TEST(CellFunctions, FaninTable) {
  EXPECT_EQ(faninOf(CellFunction::Inv), 1);
  EXPECT_EQ(faninOf(CellFunction::Nand2), 2);
  EXPECT_EQ(faninOf(CellFunction::Nor3), 3);
  EXPECT_EQ(faninOf(CellFunction::LevelConverter), 1);
}

TEST(CellFunctions, LogicalEffortOrdering) {
  // NOR is worse than NAND (weak PMOS stacks); inverter is the unit.
  EXPECT_DOUBLE_EQ(logicalEffortOf(CellFunction::Inv), 1.0);
  EXPECT_GT(logicalEffortOf(CellFunction::Nor2),
            logicalEffortOf(CellFunction::Nand2));
  EXPECT_GT(logicalEffortOf(CellFunction::Nand3),
            logicalEffortOf(CellFunction::Nand2));
}

TEST(CellFunctions, StacksLeakLess) {
  EXPECT_LT(leakageFactorOf(CellFunction::Nand3),
            leakageFactorOf(CellFunction::Nand2));
  EXPECT_LT(leakageFactorOf(CellFunction::Nand2),
            leakageFactorOf(CellFunction::Inv));
}

TEST(Characterize, DriveScalesResistanceAndCap) {
  const auto cz = charzr();
  const Cell x1 = cz.characterize(CellFunction::Inv, 1.0, VthClass::Low,
                                  VddDomain::High);
  const Cell x4 = cz.characterize(CellFunction::Inv, 4.0, VthClass::Low,
                                  VddDomain::High);
  EXPECT_NEAR(x4.driveResistance, x1.driveResistance / 4.0, 1e-9);
  EXPECT_NEAR(x4.inputCap, 4.0 * x1.inputCap, 1e-20);
  EXPECT_NEAR(x4.area, 4.0 * x1.area, 1e-18);
}

TEST(Characterize, HighVthSlowerButLeaksFarLess) {
  const auto cz = charzr();
  const Cell lvt = cz.characterize(CellFunction::Inv, 2.0, VthClass::Low,
                                   VddDomain::High);
  const Cell hvt = cz.characterize(CellFunction::Inv, 2.0, VthClass::High,
                                   VddDomain::High);
  EXPECT_GT(hvt.driveResistance, lvt.driveResistance);
  // One 100 mV step at 85 mV/dec: ~15x leakage difference.
  EXPECT_NEAR(lvt.leakage / hvt.leakage, std::pow(10.0, 0.1 / 0.085), 2.0);
  // Same footprint and input load.
  EXPECT_DOUBLE_EQ(hvt.inputCap, lvt.inputCap);
  EXPECT_DOUBLE_EQ(hvt.area, lvt.area);
}

TEST(Characterize, LowVddSlowerAndCheaper) {
  const auto cz = charzr();
  const Cell hi = cz.characterize(CellFunction::Inv, 2.0, VthClass::Low,
                                  VddDomain::High);
  const Cell lo = cz.characterize(CellFunction::Inv, 2.0, VthClass::Low,
                                  VddDomain::Low);
  EXPECT_GT(lo.driveResistance, hi.driveResistance);
  // Energy per transition ~ V^2: 0.65^2 = 0.4225.
  const double load = 5 * fF;
  EXPECT_NEAR(lo.switchingEnergy(load) / hi.switchingEnergy(load),
              kCvsVddLowRatio * kCvsVddLowRatio,
              0.02);
}

TEST(Characterize, LowVddLeaksLess) {
  // DIBL: lower drain bias raises the effective threshold.
  const auto cz = charzr();
  const Cell hi = cz.characterize(CellFunction::Inv, 1.0, VthClass::Low,
                                  VddDomain::High);
  const Cell lo = cz.characterize(CellFunction::Inv, 1.0, VthClass::Low,
                                  VddDomain::Low);
  EXPECT_LT(lo.leakage, hi.leakage);
}

TEST(Characterize, DelayModel) {
  const auto cz = charzr();
  const Cell c = cz.characterize(CellFunction::Nand2, 2.0, VthClass::Low,
                                 VddDomain::High);
  const double load = 10 * fF;
  EXPECT_NEAR(c.delay(load), 0.69 * c.driveResistance * (load + c.selfCap),
              1e-18);
  EXPECT_GT(c.delay(load), c.delay(load / 2));
}

TEST(Characterize, LevelConverterHasBigParasitic) {
  const auto cz = charzr();
  const Cell lc = cz.characterize(CellFunction::LevelConverter, 1.0,
                                  VthClass::Low, VddDomain::High);
  const Cell inv =
      cz.characterize(CellFunction::Inv, 1.0, VthClass::Low, VddDomain::High);
  EXPECT_GT(lc.delay(0.0), 2.0 * inv.delay(0.0));
}

TEST(Characterize, RejectsBadDrive) {
  const auto cz = charzr();
  EXPECT_THROW(static_cast<void>(cz.characterize(
                   CellFunction::Inv, 0.0, VthClass::Low, VddDomain::High)),
               std::invalid_argument);
}

TEST(CellCharacterizer, ForNodeUsesPaperRatios) {
  // A node's default library characterizes at the paper's ratios.
  const auto& node = tech::nodeByFeature(70);
  const CellCharacterizer cz = Library(node).characterizer();
  EXPECT_NEAR(cz.vddOf(VddDomain::Low), kCvsVddLowRatio * node.vdd, 1e-12);
  EXPECT_NEAR(cz.vthOf(VthClass::High) - cz.vthOf(VthClass::Low),
              kDualVthOffset, 1e-12);
}

TEST(CellCharacterizer, RejectsBadSupplies) {
  const auto& node = tech::nodeByFeature(70);
  EXPECT_THROW(CellCharacterizer(node, 0.1, 0.2, 0.5, 0.9, 300.0),
               std::invalid_argument);
  EXPECT_THROW(CellCharacterizer(node, 0.2, 0.1, 0.9, 0.5, 300.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace nano::circuit
