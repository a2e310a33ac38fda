#include "power/state_leakage.h"

#include <gtest/gtest.h>

#include "circuit/generator.h"
#include "power/power_model.h"
#include "power/standby.h"

namespace nano::power {
namespace {

using circuit::CellFunction;
using circuit::Library;
using circuit::VddDomain;
using circuit::VthClass;

const tech::TechNode& node70() { return tech::nodeByFeature(70); }

const Library& lib() {
  static const Library instance(node70());
  return instance;
}

TEST(CellStateLeakage, InverterStatesDiffer) {
  const auto inv = lib().pick(CellFunction::Inv, 1.0);
  const double low = cellStateLeakage(inv, node70(), 0u);   // NMOS leaks
  const double high = cellStateLeakage(inv, node70(), 1u);  // PMOS leaks
  EXPECT_GT(low, 0.0);
  EXPECT_GT(high, 0.0);
  // PMOS: wider but per-width weaker; with Wp = 2Wn and factor 0.45 the
  // two states are within 2x of each other.
  EXPECT_LT(std::max(low, high) / std::min(low, high), 2.0);
}

TEST(CellStateLeakage, NandAllLowIsBestState) {
  // Both NMOS off in series: the stack effect makes (0,0) the
  // minimum-leakage state of a NAND2.
  const auto nand = lib().pick(CellFunction::Nand2, 1.0);
  const double s00 = cellStateLeakage(nand, node70(), 0b00u);
  const double s01 = cellStateLeakage(nand, node70(), 0b01u);
  const double s10 = cellStateLeakage(nand, node70(), 0b10u);
  const double s11 = cellStateLeakage(nand, node70(), 0b11u);
  EXPECT_LT(s00, s01);
  EXPECT_LT(s00, s10);
  EXPECT_LT(s00, s11);
  EXPECT_DOUBLE_EQ(s01, s10);  // symmetric single-off states
}

TEST(CellStateLeakage, NandStackFactorMatchesStandbyModel) {
  const auto nand = lib().pick(CellFunction::Nand2, 1.0);
  const double s00 = cellStateLeakage(nand, node70(), 0b00u);
  const double s01 = cellStateLeakage(nand, node70(), 0b01u);
  const double vth = device::solveVthForIon(node70(), node70().ionTarget);
  const auto dev = device::Mosfet::fromNode(node70(), vth, node70().vdd);
  EXPECT_NEAR(s00 / s01, stackLeakageFactor(dev, 2), 1e-9);
}

TEST(CellStateLeakage, Nand3DeepStackLeaksLeast) {
  const auto nand3 = lib().pick(CellFunction::Nand3, 1.0);
  const double allLow = cellStateLeakage(nand3, node70(), 0b000u);
  const double oneLow = cellStateLeakage(nand3, node70(), 0b011u);
  const double none = cellStateLeakage(nand3, node70(), 0b111u);
  EXPECT_LT(allLow, oneLow);
  EXPECT_GT(none, 0.0);
}

TEST(CellStateLeakage, NorDualToNand) {
  // NOR2 with both inputs high: series PMOS stack off -> best state.
  const auto nor = lib().pick(CellFunction::Nor2, 1.0);
  const double bothHigh = cellStateLeakage(nor, node70(), 0b11u);
  const double bothLow = cellStateLeakage(nor, node70(), 0b00u);
  EXPECT_LT(bothHigh, bothLow);
}

TEST(CellStateLeakage, HighVthFlavorsLeakFarLess) {
  const auto lvt = lib().pick(CellFunction::Nand2, 1.0);
  const auto hvt =
      lib().pick(CellFunction::Nand2, 1.0, VthClass::High, VddDomain::High);
  for (unsigned s : {0b00u, 0b01u, 0b11u}) {
    EXPECT_LT(cellStateLeakage(hvt, node70(), s),
              0.2 * cellStateLeakage(lvt, node70(), s))
        << s;
  }
}

TEST(StateAwareLeakage, WithinStateBounds) {
  util::Rng rng(44);
  circuit::GeneratorConfig cfg;
  cfg.gates = 300;
  const auto nl = circuit::randomLogic(lib(), cfg, rng);
  const auto act = propagateActivity(nl);
  const double aware = stateAwareLeakage(nl, node70(), act);
  const LeakageBounds bounds = leakageStateBounds(nl, node70());
  EXPECT_GE(aware, bounds.minimum);
  EXPECT_LE(aware, bounds.maximum);
  EXPECT_GT(bounds.maximum, bounds.minimum);
}

TEST(StateAwareLeakage, SameOrderAsCharacterizedEstimate) {
  // The state-aware number should land within ~3x of the state-averaged
  // cell characterization (they are two views of the same physics).
  util::Rng rng(45);
  circuit::GeneratorConfig cfg;
  cfg.gates = 300;
  const auto nl = circuit::randomLogic(lib(), cfg, rng);
  const auto act = propagateActivity(nl);
  const double aware = stateAwareLeakage(nl, node70(), act);
  const auto avg = computePower(nl, act, 1e9);
  EXPECT_GT(aware, avg.leakage / 3.0);
  EXPECT_LT(aware, avg.leakage * 3.0);
}

TEST(StateAwareLeakage, InputVectorControlHeadroom) {
  // The paper's Section 3.3 point: parking the circuit in good states cuts
  // standby leakage substantially without sleep devices. Best-vs-worst
  // state bound should show >= 2x headroom on NAND/NOR-rich logic.
  util::Rng rng(46);
  circuit::GeneratorConfig cfg;
  cfg.gates = 300;
  const auto nl = circuit::randomLogic(lib(), cfg, rng);
  const LeakageBounds bounds = leakageStateBounds(nl, node70());
  EXPECT_GT(bounds.maximum / bounds.minimum, 2.0);
}

}  // namespace
}  // namespace nano::power
