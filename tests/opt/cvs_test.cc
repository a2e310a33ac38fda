#include "opt/cvs.h"

#include <gtest/gtest.h>

#include "circuit/generator.h"
#include "opt/level_converter.h"
#include "support/inverter_chain.h"

namespace nano::opt {
namespace {

using circuit::CellFunction;
using circuit::Library;
using circuit::Netlist;
using circuit::VddDomain;

struct Fixture {
  Library lib{tech::nodeByFeature(100)};
  // Register-bounded multi-block design: the substrate whose path-delay
  // histogram matches the MPU profile the paper's CVS numbers assume.
  Netlist slackRich = [this] {
    util::Rng rng(101);
    circuit::GeneratorConfig cfg;
    cfg.gates = 800;
    cfg.outputs = 64;
    return circuit::pipelinedLogic(lib, cfg, rng, 8);
  }();
};

TEST(LevelConverter, InsertsOnCrossingsOnly) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  const auto low =
      f.lib.pick(CellFunction::Inv, 1.0, circuit::VthClass::Low, VddDomain::Low);
  const auto high = f.lib.pick(CellFunction::Inv, 1.0);
  const int g1 = nl.addGate(low, {a});
  const int g2 = nl.addGate(high, {g1});  // crossing!
  nl.markOutput(g2);
  const ConversionReport rep = insertLevelConverters(nl, f.lib);
  EXPECT_EQ(rep.convertersAdded, 1);
  EXPECT_TRUE(rep.netlist.vddViolations().empty());
  EXPECT_EQ(rep.netlist.gateCount(), 3);
}

TEST(LevelConverter, SharedAcrossSinks) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  const auto low =
      f.lib.pick(CellFunction::Inv, 1.0, circuit::VthClass::Low, VddDomain::Low);
  const auto high = f.lib.pick(CellFunction::Inv, 1.0);
  const int g1 = nl.addGate(low, {a});
  const int g2 = nl.addGate(high, {g1});
  const int g3 = nl.addGate(high, {g1});
  nl.markOutput(g2);
  nl.markOutput(g3);
  const ConversionReport rep = insertLevelConverters(nl, f.lib);
  EXPECT_EQ(rep.convertersAdded, 1);  // one converter serves both sinks
}

TEST(LevelConverter, OutputBoundaryConversion) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  const auto low =
      f.lib.pick(CellFunction::Inv, 1.0, circuit::VthClass::Low, VddDomain::Low);
  const int g1 = nl.addGate(low, {a});
  nl.markOutput(g1);
  EXPECT_EQ(insertLevelConverters(nl, f.lib).convertersAdded, 1);
}

TEST(LevelConverter, NoOpOnSingleVddDesign) {
  Fixture f;
  const ConversionReport rep = insertLevelConverters(f.slackRich, f.lib);
  EXPECT_EQ(rep.convertersAdded, 0);
  EXPECT_EQ(rep.netlist.gateCount(), f.slackRich.gateCount());
}

TEST(Cvs, AssignsLargeFractionToLowVdd) {
  // Paper Section 2.4: media-processor CVS results put ~75 % of gates at
  // Vdd,l; our register-bounded profile lands in the same regime.
  Fixture f;
  const CvsResult r = runCvs(f.slackRich, f.lib);
  EXPECT_GT(r.fractionLowVdd, 0.6);
  EXPECT_LE(r.fractionLowVdd, 1.0);
}

TEST(Cvs, TimingStillMet) {
  Fixture f;
  const CvsResult r = runCvs(f.slackRich, f.lib);
  EXPECT_TRUE(r.timingAfter.meetsTiming());
}

TEST(Cvs, NoVddViolations) {
  Fixture f;
  const CvsResult r = runCvs(f.slackRich, f.lib);
  EXPECT_TRUE(r.netlist.vddViolations().empty());
}

TEST(Cvs, DynamicPowerSavingsInPaperBand) {
  // Paper: 45-50 % dynamic reduction including 8-10 % converter power. Our
  // blocks are smaller than MPU pipeline stages, so conversion overhead
  // bites harder; accept a generous band around the paper's figure.
  Fixture f;
  const CvsResult r = runCvs(f.slackRich, f.lib);
  EXPECT_GT(r.dynamicSavings(), 0.25);
  EXPECT_LT(r.dynamicSavings(), 0.60);
}

TEST(Cvs, ConverterPowerFractionBounded) {
  Fixture f;
  const CvsResult r = runCvs(f.slackRich, f.lib);
  EXPECT_LT(r.converterPowerFraction(), 0.20);
}

TEST(Cvs, TightClockLimitsAssignment) {
  // With zero slack everywhere (clock == critical path of a chain),
  // nothing can move to Vdd,l.
  Fixture f;
  const Netlist chain = circuit::inverterChain(f.lib, 12);
  const CvsResult r = runCvs(chain, f.lib);
  EXPECT_LT(r.fractionLowVdd, 0.05);
}

TEST(Cvs, RelaxedClockAllowsEverything) {
  Fixture f;
  const Netlist chain = circuit::inverterChain(f.lib, 12);
  CvsOptions opt;
  opt.clockPeriod = 10.0 * sta::analyze(chain).criticalPathDelay;
  const CvsResult r = runCvs(chain, f.lib, opt);
  EXPECT_GT(r.fractionLowVdd, 0.9);
}

TEST(Cvs, ClusersAreContiguousTowardOutputs) {
  // CVS invariant: every fanout of a low gate is low (before converter
  // insertion this is the structural rule; after insertion violations are
  // cured, so re-check on the result ignoring converters).
  Fixture f;
  const CvsResult r = runCvs(f.slackRich, f.lib);
  const Netlist& nl = r.netlist;
  for (int g : nl.gateIds()) {
    const auto& n = nl.node(g);
    if (n.cell.vddDomain != VddDomain::Low) continue;
    for (int fo : n.fanouts) {
      const auto& sink = nl.node(fo);
      EXPECT_TRUE(sink.cell.vddDomain == VddDomain::Low ||
                  sink.cell.function == CellFunction::LevelConverter);
    }
  }
}

}  // namespace
}  // namespace nano::opt
