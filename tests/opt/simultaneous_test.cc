#include "opt/simultaneous.h"

#include <gtest/gtest.h>

#include "circuit/generator.h"
#include "opt/dual_vth.h"
#include "opt/sizing.h"
#include "support/inverter_chain.h"

namespace nano::opt {
namespace {

using circuit::Library;
using circuit::Netlist;

struct Fixture {
  Library lib{tech::nodeByFeature(70)};
  Netlist design = [this] {
    util::Rng rng(606);
    circuit::GeneratorConfig cfg;
    cfg.gates = 350;
    cfg.outputs = 32;
    Netlist nl = circuit::pipelinedLogic(lib, cfg, rng, 5);
    for (int g : nl.gateIds()) {
      const auto& cell = nl.node(g).cell;
      nl.replaceCell(g, lib.pick(cell.function, 2.0));
    }
    return nl;
  }();
};

TEST(Simultaneous, SavesPowerAndMeetsTiming) {
  Fixture f;
  const SimultaneousResult r = runSimultaneous(f.design, f.lib);
  EXPECT_TRUE(r.timingAfter.meetsTiming());
  EXPECT_GT(r.powerSavings(), 0.2);
  EXPECT_GT(r.sizeMoves, 0);
  EXPECT_GT(r.vthMoves, 0);
}

TEST(Simultaneous, BeatsOrMatchesSequentialOrder) {
  // The point of ref [22]: interleaving sizing and Vth moves by marginal
  // benefit is at least as good as running them in sequence.
  Fixture f;
  const SimultaneousResult sim = runSimultaneous(f.design, f.lib);

  SizingOptions so;
  so.continuousSizes = true;
  const SizingResult sized = downsizeForPower(f.design, f.lib, so);
  const DualVthResult sequential = runDualVth(sized.netlist, f.lib);
  const double seqPower = sequential.powerAfter.total();
  EXPECT_LE(sim.powerAfter.total(), seqPower * 1.05);
}

TEST(Simultaneous, NoMovesOnZeroSlackChain) {
  Fixture f;
  const Netlist chain = circuit::inverterChain(f.lib, 10);
  const SimultaneousResult r = runSimultaneous(chain, f.lib);
  // The chain is self-clocked: every gate is critical, nothing may move.
  EXPECT_EQ(r.sizeMoves + r.vthMoves, 0);
  EXPECT_NEAR(r.powerSavings(), 0.0, 1e-9);
}

TEST(Simultaneous, RelaxedClockUnlocksEverything) {
  Fixture f;
  const Netlist chain = circuit::inverterChain(f.lib, 10, 4.0);
  SimultaneousOptions opt;
  opt.clockPeriod = 5.0 * sta::analyze(chain).criticalPathDelay;
  const SimultaneousResult r = runSimultaneous(chain, f.lib, opt);
  EXPECT_GT(r.powerSavings(), 0.5);
  EXPECT_TRUE(r.timingAfter.meetsTiming());
}

TEST(Simultaneous, LeakageAndDynamicBothDrop) {
  Fixture f;
  const SimultaneousResult r = runSimultaneous(f.design, f.lib);
  EXPECT_LT(r.powerAfter.leakage, r.powerBefore.leakage);
  EXPECT_LT(r.powerAfter.dynamic, r.powerBefore.dynamic);
}

TEST(Simultaneous, MoveCapRespected) {
  Fixture f;
  SimultaneousOptions opt;
  opt.maxMoves = 5;
  const SimultaneousResult r = runSimultaneous(f.design, f.lib, opt);
  EXPECT_LE(r.sizeMoves + r.vthMoves, 5);
}

}  // namespace
}  // namespace nano::opt
