#include "circuit/generator.h"

#include "sta/sta.h"
#include "support/inverter_chain.h"

#include <gtest/gtest.h>

namespace nano::circuit {
namespace {

const Library& lib() {
  static const Library instance(tech::nodeByFeature(100));
  return instance;
}

TEST(RandomLogic, GeneratesRequestedShape) {
  util::Rng rng(42);
  GeneratorConfig cfg;
  cfg.inputs = 32;
  cfg.gates = 500;
  cfg.outputs = 16;
  const Netlist nl = randomLogic(lib(), cfg, rng);
  EXPECT_EQ(nl.inputCount(), 32);
  EXPECT_EQ(nl.gateCount(), 500);
  EXPECT_GE(static_cast<int>(nl.outputs().size()), 16);
  EXPECT_NO_THROW(nl.validate());
}

TEST(RandomLogic, DeterministicFromSeed) {
  GeneratorConfig cfg;
  cfg.gates = 200;
  util::Rng r1(7), r2(7);
  const Netlist a = randomLogic(lib(), cfg, r1);
  const Netlist b = randomLogic(lib(), cfg, r2);
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  for (int i = 0; i < a.nodeCount(); ++i) {
    EXPECT_EQ(a.node(i).fanins, b.node(i).fanins);
  }
}

TEST(RandomLogic, NoDanglingGates) {
  util::Rng rng(3);
  GeneratorConfig cfg;
  cfg.gates = 300;
  const Netlist nl = randomLogic(lib(), cfg, rng);
  for (int g : nl.gateIds()) {
    EXPECT_TRUE(!nl.node(g).fanouts.empty() || nl.node(g).isOutput);
  }
}

TEST(RandomLogic, AllGatesStartHighVddLowVth) {
  util::Rng rng(3);
  GeneratorConfig cfg;
  cfg.gates = 100;
  const Netlist nl = randomLogic(lib(), cfg, rng);
  for (int g : nl.gateIds()) {
    EXPECT_EQ(nl.node(g).cell.vddDomain, VddDomain::High);
    EXPECT_EQ(nl.node(g).cell.vth, VthClass::Low);
  }
}

TEST(RandomLogic, RejectsBadConfig) {
  util::Rng rng(1);
  GeneratorConfig cfg;
  cfg.gates = 5;
  cfg.depth = 10;  // fewer gates than levels
  EXPECT_THROW(randomLogic(lib(), cfg, rng), std::invalid_argument);
}

TEST(RippleCarryAdder, StructureIsNineNandPerBit) {
  const Netlist nl = rippleCarryAdder(lib(), 8);
  EXPECT_EQ(nl.inputCount(), 2 * 8 + 1);
  EXPECT_EQ(nl.gateCount(), 9 * 8);
  EXPECT_EQ(nl.outputs().size(), 8u + 1u);  // sums + carry out
  EXPECT_NO_THROW(nl.validate());
}

TEST(RippleCarryAdder, DepthGrowsWithWidth) {
  // The carry chain makes critical depth linear in bit count; check via a
  // rough proxy: node count of the longest fanin chain grows.
  const Netlist small = rippleCarryAdder(lib(), 4);
  const Netlist big = rippleCarryAdder(lib(), 16);
  EXPECT_GT(big.gateCount(), 3 * small.gateCount());
}

TEST(RippleCarryAdder, RejectsZeroBits) {
  EXPECT_THROW(rippleCarryAdder(lib(), 0), std::invalid_argument);
}

TEST(InverterChain, LinearTopology) {
  const Netlist nl = inverterChain(lib(), 10);
  EXPECT_EQ(nl.gateCount(), 10);
  EXPECT_EQ(nl.inputCount(), 1);
  for (int g : nl.gateIds()) {
    EXPECT_LE(nl.node(g).fanouts.size(), 1u);
  }
}

TEST(InverterChain, UsesRequestedDrive) {
  const Netlist nl = inverterChain(lib(), 3, 4.0);
  for (int g : nl.gateIds()) {
    EXPECT_DOUBLE_EQ(nl.node(g).cell.drive, 4.0);
  }
}

TEST(KoggeStoneAdder, StructureAndOutputs) {
  const Netlist nl = koggeStoneAdder(lib(), 8);
  EXPECT_EQ(nl.inputCount(), 2 * 8 + 1);
  EXPECT_EQ(nl.outputs().size(), 9u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(KoggeStoneAdder, LogDepthBeatsRippleForWideWords) {
  // O(log N) vs O(N): the prefix adder is decisively faster at 16+ bits
  // and the gap widens with width.
  for (int bits : {16, 32}) {
    const Netlist ripple = rippleCarryAdder(lib(), bits);
    const Netlist kogge = koggeStoneAdder(lib(), bits);
    const double dr = sta::analyze(ripple).criticalPathDelay;
    const double dk = sta::analyze(kogge).criticalPathDelay;
    EXPECT_LT(dk, 0.6 * dr) << bits;
    EXPECT_GT(kogge.gateCount(), ripple.gateCount()) << bits;  // area price
  }
}

TEST(KoggeStoneAdder, DepthGrowsLogarithmically) {
  const double d8 = sta::analyze(koggeStoneAdder(lib(), 8)).criticalPathDelay;
  const double d32 =
      sta::analyze(koggeStoneAdder(lib(), 32)).criticalPathDelay;
  // Two doublings of width: well under 2x the delay (ripple would be 4x).
  EXPECT_LT(d32, 2.0 * d8);
}

TEST(KoggeStoneAdder, RejectsZeroBits) {
  EXPECT_THROW(koggeStoneAdder(lib(), 0), std::invalid_argument);
}

}  // namespace
}  // namespace nano::circuit
