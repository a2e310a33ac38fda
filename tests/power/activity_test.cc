#include "power/activity.h"

#include <gtest/gtest.h>

#include "circuit/generator.h"
#include "support/inverter_chain.h"

namespace nano::power {
namespace {

using circuit::CellFunction;

TEST(OutputProbability, TruthTables) {
  EXPECT_DOUBLE_EQ(outputProbability(CellFunction::Inv, {0.3}), 0.7);
  EXPECT_DOUBLE_EQ(outputProbability(CellFunction::Buf, {0.3}), 0.3);
  EXPECT_DOUBLE_EQ(outputProbability(CellFunction::Nand2, {0.5, 0.5}), 0.75);
  EXPECT_DOUBLE_EQ(outputProbability(CellFunction::Nor2, {0.5, 0.5}), 0.25);
  EXPECT_DOUBLE_EQ(outputProbability(CellFunction::Xor2, {0.5, 0.5}), 0.5);
  EXPECT_NEAR(outputProbability(CellFunction::Nand3, {0.5, 0.5, 0.5}), 0.875,
              1e-12);
  EXPECT_NEAR(outputProbability(CellFunction::Nor3, {0.5, 0.5, 0.5}), 0.125,
              1e-12);
}

TEST(OutputProbability, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(outputProbability(CellFunction::Nand2, {1.0, 1.0}), 0.0);
  EXPECT_DOUBLE_EQ(outputProbability(CellFunction::Nand2, {0.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(outputProbability(CellFunction::Xor2, {1.0, 1.0}), 0.0);
}

TEST(OutputProbability, RejectsArityMismatch) {
  EXPECT_THROW(outputProbability(CellFunction::Nand2, {0.5}),
               std::invalid_argument);
  EXPECT_THROW(outputProbability(CellFunction::Inv, {0.5, 0.5}),
               std::invalid_argument);
}

struct Fixture {
  circuit::Library lib{tech::nodeByFeature(100)};
};

TEST(Propagate, InputsGetRequestedStats) {
  Fixture f;
  const auto nl = circuit::inverterChain(f.lib, 3);
  const ActivityResult r = propagateActivity(nl, 0.5, 0.3);
  EXPECT_DOUBLE_EQ(r.probability[0], 0.5);
  EXPECT_DOUBLE_EQ(r.activity[0], 0.3);
}

TEST(Propagate, InverterPreservesActivity) {
  // p -> 1-p has the same 2p(1-p), so a chain keeps the input activity.
  Fixture f;
  const auto nl = circuit::inverterChain(f.lib, 4);
  const ActivityResult r = propagateActivity(nl, 0.5, 0.3);
  for (int g : nl.gateIds()) {
    EXPECT_NEAR(r.activity[static_cast<std::size_t>(g)], 0.3, 1e-12);
  }
}

TEST(Propagate, NandOutputLessActiveThanInputsAtHalf) {
  // p_out = 0.75: activity factor 2*0.75*0.25 = 0.375 < 0.5.
  Fixture f;
  circuit::Netlist nl;
  const int a = nl.addInput();
  const int b = nl.addInput();
  const int g = nl.addGate(f.lib.pick(CellFunction::Nand2, 1.0), {a, b});
  nl.markOutput(g);
  const ActivityResult r = propagateActivity(nl, 0.5, 0.5);
  EXPECT_NEAR(r.activity[static_cast<std::size_t>(g)], 0.375, 1e-12);
}

TEST(Propagate, TemporalFactorScalesInternalNodes) {
  Fixture f;
  const auto nl = circuit::inverterChain(f.lib, 2);
  const ActivityResult lo = propagateActivity(nl, 0.5, 0.1);
  const ActivityResult hi = propagateActivity(nl, 0.5, 0.2);
  for (int g : nl.gateIds()) {
    EXPECT_NEAR(hi.activity[static_cast<std::size_t>(g)] /
                    lo.activity[static_cast<std::size_t>(g)],
                2.0, 1e-9);
  }
}

TEST(Propagate, ProbabilitiesStayInUnitInterval) {
  Fixture f;
  util::Rng rng(5);
  circuit::GeneratorConfig cfg;
  cfg.gates = 800;
  const auto nl = circuit::randomLogic(f.lib, cfg, rng);
  const ActivityResult r = propagateActivity(nl, 0.5, 0.2);
  for (int i = 0; i < nl.nodeCount(); ++i) {
    EXPECT_GE(r.probability[static_cast<std::size_t>(i)], 0.0);
    EXPECT_LE(r.probability[static_cast<std::size_t>(i)], 1.0);
    EXPECT_GE(r.activity[static_cast<std::size_t>(i)], 0.0);
    EXPECT_LE(r.activity[static_cast<std::size_t>(i)], 0.5001);
  }
}

TEST(Propagate, RejectsDegenerateProbability) {
  Fixture f;
  const auto nl = circuit::inverterChain(f.lib, 2);
  EXPECT_THROW(propagateActivity(nl, 0.0, 0.2), std::invalid_argument);
  EXPECT_THROW(propagateActivity(nl, 1.0, 0.2), std::invalid_argument);
}

}  // namespace
}  // namespace nano::power
