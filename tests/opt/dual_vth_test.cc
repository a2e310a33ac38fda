#include "opt/dual_vth.h"

#include <gtest/gtest.h>

#include "circuit/generator.h"
#include "support/inverter_chain.h"

namespace nano::opt {
namespace {

using circuit::Library;
using circuit::Netlist;
using circuit::VthClass;

struct Fixture {
  Library lib{tech::nodeByFeature(70)};
  Netlist design = [this] {
    util::Rng rng(202);
    circuit::GeneratorConfig cfg;
    cfg.gates = 600;
    cfg.outputs = 48;
    return circuit::randomLogic(lib, cfg, rng);
  }();
};

TEST(DualVth, LeakageSavingsInPaperBand) {
  // Paper Section 3.2.2: 40-80 % leakage reduction.
  Fixture f;
  const DualVthResult r = runDualVth(f.design, f.lib);
  EXPECT_GT(r.leakageSavings(), 0.40);
  EXPECT_LT(r.leakageSavings(), 0.95);
}

TEST(DualVth, MinimalCriticalPathPenalty) {
  // "with minimal penalty in critical path delay".
  Fixture f;
  const DualVthResult r = runDualVth(f.design, f.lib);
  EXPECT_LE(r.criticalPathPenalty(), 0.001);
  EXPECT_TRUE(r.timingAfter.meetsTiming());
}

TEST(DualVth, LargeFractionMovesToHighVth) {
  Fixture f;
  const DualVthResult r = runDualVth(f.design, f.lib);
  EXPECT_GT(r.fractionHighVth, 0.4);
}

TEST(DualVth, DynamicPowerUntouched) {
  Fixture f;
  const DualVthResult r = runDualVth(f.design, f.lib);
  EXPECT_NEAR(r.powerAfter.dynamic, r.powerBefore.dynamic,
              0.02 * r.powerBefore.dynamic);
}

TEST(DualVth, ZeroSlackChainStaysLowVth) {
  Fixture f;
  const Netlist chain = circuit::inverterChain(f.lib, 12);
  const DualVthResult r = runDualVth(chain, f.lib);
  EXPECT_LT(r.fractionHighVth, 0.05);
}

TEST(DualVth, RelaxedClockMovesEverything) {
  Fixture f;
  const Netlist chain = circuit::inverterChain(f.lib, 12);
  DualVthOptions opt;
  opt.clockPeriod = 5.0 * sta::analyze(chain).criticalPathDelay;
  const DualVthResult r = runDualVth(chain, f.lib, opt);
  EXPECT_GT(r.fractionHighVth, 0.9);
  EXPECT_GT(r.leakageSavings(), 0.85);
}

TEST(DualVth, GuardbandReducesAssignment) {
  Fixture f;
  DualVthOptions none;
  DualVthOptions guarded;
  guarded.guardband = 0.15;
  const DualVthResult a = runDualVth(f.design, f.lib, none);
  const DualVthResult b = runDualVth(f.design, f.lib, guarded);
  EXPECT_LE(b.fractionHighVth, a.fractionHighVth + 1e-12);
}

TEST(DualVth, CriticalPathStaysLowVth) {
  // Gates on the post-assignment critical path should be the fast flavor
  // (a high-Vth gate there would have violated timing).
  Fixture f;
  const DualVthResult r = runDualVth(f.design, f.lib);
  int lowOnPath = 0, highOnPath = 0;
  for (int id : r.timingAfter.criticalPath) {
    const auto& n = r.netlist.node(id);
    if (n.kind != Netlist::NodeKind::Gate) continue;
    (n.cell.vth == VthClass::Low ? lowOnPath : highOnPath)++;
  }
  EXPECT_GT(lowOnPath, highOnPath);
}

}  // namespace
}  // namespace nano::opt
