// Property tests: invariants that must hold for ANY generated design,
// swept over seeds with parameterized gtest. These are the guard rails of
// the optimizer stack — timing legality, electrical legality, conservation
// of structure — independent of the particular netlist drawn.
#include <gtest/gtest.h>

#include "circuit/generator.h"
#include "opt/combined.h"
#include "power/power_model.h"
#include "sta/sta.h"

namespace nano {
namespace {

using circuit::Library;
using circuit::Netlist;

const Library& lib() {
  static const Library instance(tech::nodeByFeature(70));
  return instance;
}

Netlist designForSeed(std::uint64_t seed) {
  util::Rng rng(seed);
  circuit::GeneratorConfig cfg;
  cfg.gates = 400;
  cfg.outputs = 32;
  return circuit::pipelinedLogic(lib(), cfg, rng, 5);
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, GeneratedDesignIsStructurallySound) {
  const Netlist nl = designForSeed(GetParam());
  EXPECT_NO_THROW(nl.validate());
  EXPECT_TRUE(nl.vddViolations().empty());
  for (int g : nl.gateIds()) {
    EXPECT_TRUE(!nl.node(g).fanouts.empty() || nl.node(g).isOutput);
  }
}

TEST_P(SeedSweep, StaSlacksConsistent) {
  const Netlist nl = designForSeed(GetParam());
  const auto t = sta::analyze(nl);
  EXPECT_GT(t.criticalPathDelay, 0.0);
  EXPECT_NEAR(t.worstSlack, 0.0, 1e-15);  // self-clocked
  for (int i = 0; i < nl.nodeCount(); ++i) {
    EXPECT_GE(t.slack[static_cast<std::size_t>(i)], -1e-15);
  }
}

TEST_P(SeedSweep, CvsPreservesTimingAndLegality) {
  const Netlist nl = designForSeed(GetParam());
  const auto r = opt::runCvs(nl, lib());
  EXPECT_TRUE(r.timingAfter.meetsTiming());
  EXPECT_TRUE(r.netlist.vddViolations().empty());
  EXPECT_GE(r.dynamicSavings(), -1e-9);
  EXPECT_GE(r.fractionLowVdd, 0.0);
  EXPECT_LE(r.fractionLowVdd, 1.0);
}

TEST_P(SeedSweep, DualVthNeverHurtsTimingOrDynamicPower) {
  const Netlist nl = designForSeed(GetParam());
  const auto r = opt::runDualVth(nl, lib());
  EXPECT_TRUE(r.timingAfter.meetsTiming());
  EXPECT_LE(r.powerAfter.leakage, r.powerBefore.leakage * (1.0 + 1e-9));
  EXPECT_NEAR(r.powerAfter.dynamic, r.powerBefore.dynamic,
              0.001 * r.powerBefore.dynamic);
}

TEST_P(SeedSweep, DownsizeNeverIncreasesPowerOrArea) {
  const Netlist nl = designForSeed(GetParam());
  const auto r = opt::downsizeForPower(nl, lib());
  EXPECT_TRUE(r.timingAfter.meetsTiming());
  EXPECT_LE(r.powerAfter.total(), r.powerBefore.total() * (1.0 + 1e-9));
  EXPECT_LE(r.areaAfter, r.areaBefore * (1.0 + 1e-9));
}

TEST_P(SeedSweep, FullFlowMonotoneAndLegal) {
  const Netlist nl = designForSeed(GetParam());
  const auto r = opt::runFlow(nl, lib());
  double prev = r.powerBefore.total();
  for (const auto& stage : r.stages) {
    EXPECT_LE(stage.power.total(), prev * 1.001) << stage.name;
    EXPECT_TRUE(stage.timing.meetsTiming()) << stage.name;
    prev = stage.power.total();
  }
  EXPECT_TRUE(r.netlist.vddViolations().empty());
}

TEST_P(SeedSweep, ActivityBoundsHold) {
  const Netlist nl = designForSeed(GetParam());
  const auto act = power::propagateActivity(nl, 0.5, 0.2);
  for (int i = 0; i < nl.nodeCount(); ++i) {
    EXPECT_GE(act.probability[static_cast<std::size_t>(i)], 0.0);
    EXPECT_LE(act.probability[static_cast<std::size_t>(i)], 1.0);
    EXPECT_GE(act.activity[static_cast<std::size_t>(i)], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 17u, 123u, 9001u, 424242u));

}  // namespace
}  // namespace nano
