// Integration: the optimizer stack on structured arithmetic circuits
// (ripple-carry and Kogge-Stone adders) — realistic topologies with known
// critical structure, exercised end to end.
#include <gtest/gtest.h>

#include "circuit/generator.h"
#include "opt/combined.h"
#include "opt/simultaneous.h"
#include "power/state_leakage.h"
#include "sta/ssta.h"

namespace nano {
namespace {

using circuit::Library;
using circuit::Netlist;

const tech::TechNode& node70() { return tech::nodeByFeature(70); }

const Library& lib() {
  static const Library instance(node70());
  return instance;
}

TEST(StructuredCircuits, KoggeStoneAbsorbsFullFlowAtRippleClock) {
  const Netlist ripple = circuit::rippleCarryAdder(lib(), 16);
  const Netlist kogge = circuit::koggeStoneAdder(lib(), 16);
  opt::FlowOptions options;
  options.clockPeriod = sta::analyze(ripple).criticalPathDelay;
  const opt::FlowResult flow = opt::runFlow(kogge, lib(), options);
  EXPECT_TRUE(flow.stages.back().timing.meetsTiming());
  // Massive architectural slack: nearly everything moves to Vdd,l/HVT.
  EXPECT_GT(flow.stages.back().fractionLowVdd, 0.9);
  EXPECT_GT(flow.stages.back().fractionHighVth, 0.9);
  EXPECT_GT(flow.totalSavings(), 0.5);
}

TEST(StructuredCircuits, SimultaneousOptimizerOnAdder) {
  const Netlist adder = circuit::rippleCarryAdder(lib(), 8);
  opt::SimultaneousOptions options;
  options.clockPeriod = 1.3 * sta::analyze(adder).criticalPathDelay;
  const opt::SimultaneousResult r =
      opt::runSimultaneous(adder, lib(), options);
  EXPECT_TRUE(r.timingAfter.meetsTiming());
  EXPECT_GT(r.powerSavings(), 0.1);
}

TEST(StructuredCircuits, StateLeakageOnAdder) {
  // NAND-only decomposition: strong state dependence, so input-vector
  // bounds must show real headroom.
  const Netlist adder = circuit::rippleCarryAdder(lib(), 8);
  const auto bounds = power::leakageStateBounds(adder, node70());
  EXPECT_GT(bounds.maximum / bounds.minimum, 2.0);
  const auto act = power::propagateActivity(adder);
  const double aware = power::stateAwareLeakage(adder, node70(), act);
  EXPECT_GT(aware, bounds.minimum);
  EXPECT_LT(aware, bounds.maximum);
}

TEST(StructuredCircuits, SstaOnCarryChain) {
  // The ripple carry chain is one long path: sigma should behave like a
  // chain (grow with bit count).
  const Netlist small = circuit::rippleCarryAdder(lib(), 4);
  const Netlist big = circuit::rippleCarryAdder(lib(), 16);
  const auto s1 = sta::analyzeStatistical(small, node70());
  const auto s2 = sta::analyzeStatistical(big, node70());
  EXPECT_GT(s2.criticalSigma, 1.5 * s1.criticalSigma);
  EXPECT_GT(s2.criticalMean, 3.0 * s1.criticalMean);
}

}  // namespace
}  // namespace nano
