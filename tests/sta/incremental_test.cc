#include "sta/incremental.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "circuit/generator.h"
#include "util/rng.h"

namespace nano::sta {
namespace {

using circuit::Cell;
using circuit::Library;
using circuit::Netlist;
using circuit::VthClass;

const Library& lib() {
  static const Library instance(tech::nodeByFeature(100));
  return instance;
}

Netlist makeNetlist(int gates, unsigned seed) {
  util::Rng rng(seed);
  circuit::GeneratorConfig cfg;
  cfg.gates = gates;
  cfg.outputs = std::max(1, gates / 16);
  return circuit::pipelinedLogic(lib(), cfg, rng, 6);
}

/// A random alternate cell for the gate: flip the Vth corner or scale the
/// drive, so swaps move timing in both directions.
Cell randomAlternate(util::Rng& rng, const Cell& cell) {
  switch (rng.uniformInt(0, 2)) {
    case 0:
      return lib().recorner(cell,
                            cell.vth == VthClass::Low ? VthClass::High
                                                      : VthClass::Low,
                            cell.vddDomain);
    case 1:
      return lib().generateCustom(cell.function, cell.drive * 1.5, cell.vth,
                                  cell.vddDomain);
    default:
      return lib().generateCustom(cell.function,
                                  std::max(0.5, cell.drive * 0.75), cell.vth,
                                  cell.vddDomain);
  }
}

/// Full-state equality against a fresh sta::analyze of the same netlist.
/// The engine promises bit-identical values (same operations, same
/// summation order), which is well inside the 1e-12 the optimizers need.
void expectMatchesFullAnalysis(const IncrementalSta& inc, const Netlist& nl) {
  const TimingResult full = analyze(nl, inc.clockPeriod());
  ASSERT_EQ(full.arrival.size(), static_cast<std::size_t>(nl.nodeCount()));
  for (int id = 0; id < nl.nodeCount(); ++id) {
    const auto i = static_cast<std::size_t>(id);
    ASSERT_EQ(inc.arrival(id), full.arrival[i]) << "arrival @" << id;
    ASSERT_EQ(inc.required(id), full.required[i]) << "required @" << id;
    ASSERT_EQ(inc.slack(id), full.slack[i]) << "slack @" << id;
  }
  EXPECT_EQ(inc.worstSlack(), full.worstSlack);
  EXPECT_EQ(inc.criticalPath(), full.criticalPath);
}

TEST(IncrementalSta, InitialStateMatchesAnalyze) {
  Netlist nl = makeNetlist(300, 7);
  const IncrementalSta inc(nl);
  const TimingResult full = analyze(nl);
  EXPECT_EQ(inc.clockPeriod(), full.clockPeriod);
  expectMatchesFullAnalysis(inc, nl);
}

TEST(IncrementalSta, RandomSwapsStayEquivalentToFullAnalysis) {
  Netlist nl = makeNetlist(400, 13);
  IncrementalSta inc(nl, /*clockPeriod=*/-1.0);
  util::Rng rng(99);
  const auto gates = nl.gateIds();
  for (int k = 0; k < 60; ++k) {
    const int g =
        gates[static_cast<std::size_t>(rng.uniformInt(0, static_cast<int>(gates.size()) - 1))];
    inc.apply(g, randomAlternate(rng, nl.node(g).cell));
    expectMatchesFullAnalysis(inc, nl);
  }
  // The whole point: far fewer node visits than 60 full reanalyses.
  EXPECT_LT(inc.nodesRepropagated(), 60 * nl.nodeCount());
}

TEST(IncrementalSta, RollbackRestoresEverything) {
  Netlist nl = makeNetlist(300, 21);
  IncrementalSta inc(nl);
  util::Rng rng(5);
  const auto gates = nl.gateIds();
  for (int k = 0; k < 25; ++k) {
    const int g =
        gates[static_cast<std::size_t>(rng.uniformInt(0, static_cast<int>(gates.size()) - 1))];
    const Cell before = nl.node(g).cell;
    const std::vector<double> slackBefore = [&] {
      std::vector<double> s;
      for (int id = 0; id < nl.nodeCount(); ++id) s.push_back(inc.slack(id));
      return s;
    }();

    inc.trial(g, randomAlternate(rng, nl.node(g).cell));
    EXPECT_TRUE(inc.hasPendingTrial());
    inc.rollback();
    EXPECT_FALSE(inc.hasPendingTrial());

    EXPECT_EQ(nl.node(g).cell.drive, before.drive);
    EXPECT_EQ(nl.node(g).cell.vth, before.vth);
    for (int id = 0; id < nl.nodeCount(); ++id) {
      ASSERT_EQ(inc.slack(id), slackBefore[static_cast<std::size_t>(id)]);
    }
    expectMatchesFullAnalysis(inc, nl);
  }
}

TEST(IncrementalSta, CommitKeepsTheTrialState) {
  Netlist nl = makeNetlist(200, 3);
  IncrementalSta inc(nl);
  const int g = nl.gateIds().front();
  const Cell slower = lib().recorner(nl.node(g).cell, VthClass::High,
                                     nl.node(g).cell.vddDomain);
  inc.trial(g, slower);
  inc.commit();
  EXPECT_EQ(nl.node(g).cell.vth, VthClass::High);
  expectMatchesFullAnalysis(inc, nl);
}

TEST(IncrementalSta, ExportResultMatchesAnalyze) {
  Netlist nl = makeNetlist(250, 17);
  IncrementalSta inc(nl);
  util::Rng rng(31);
  const auto gates = nl.gateIds();
  for (int k = 0; k < 10; ++k) {
    const int g =
        gates[static_cast<std::size_t>(rng.uniformInt(0, static_cast<int>(gates.size()) - 1))];
    inc.apply(g, randomAlternate(rng, nl.node(g).cell));
  }
  const TimingResult exported = inc.exportResult();
  const TimingResult full = analyze(nl, inc.clockPeriod());
  EXPECT_EQ(exported.clockPeriod, full.clockPeriod);
  EXPECT_EQ(exported.criticalPathDelay, full.criticalPathDelay);
  EXPECT_EQ(exported.worstSlack, full.worstSlack);
  EXPECT_EQ(exported.arrival, full.arrival);
  EXPECT_EQ(exported.required, full.required);
  EXPECT_EQ(exported.slack, full.slack);
  EXPECT_EQ(exported.criticalPath, full.criticalPath);
}

TEST(IncrementalSta, MisuseThrows) {
  Netlist nl = makeNetlist(100, 1);
  IncrementalSta inc(nl);
  const int g = nl.gateIds().front();
  EXPECT_THROW(inc.commit(), std::logic_error);
  EXPECT_THROW(inc.rollback(), std::logic_error);
  int pi = -1;
  for (int id = 0; id < nl.nodeCount(); ++id) {
    if (nl.node(id).kind == Netlist::NodeKind::PrimaryInput) {
      pi = id;
      break;
    }
  }
  ASSERT_GE(pi, 0);
  EXPECT_THROW(inc.trial(pi, nl.node(g).cell), std::invalid_argument);

  inc.trial(g, lib().recorner(nl.node(g).cell, VthClass::High,
                              nl.node(g).cell.vddDomain));
  EXPECT_THROW(inc.trial(g, nl.node(g).cell), std::logic_error);
  inc.rollback();
}

TEST(IncrementalSta, RejectedSwapLeavesNoTrialPending) {
  Netlist nl = makeNetlist(200, 11);
  IncrementalSta inc(nl);
  const int g = nl.gateIds().front();
  const Cell original = nl.node(g).cell;
  const Cell otherFunction = lib().pick(
      original.function == circuit::CellFunction::Inv
          ? circuit::CellFunction::Nand2
          : circuit::CellFunction::Inv,
      original.drive, original.vth, original.vddDomain);
  EXPECT_THROW(inc.trial(g, otherFunction), std::invalid_argument);
  EXPECT_FALSE(inc.hasPendingTrial());
  EXPECT_EQ(nl.node(g).cell.function, original.function);

  // The engine takes the next valid trial and rolls it back cleanly.
  inc.trial(g, lib().recorner(original, VthClass::High, original.vddDomain));
  EXPECT_TRUE(inc.hasPendingTrial());
  inc.rollback();
  EXPECT_FALSE(inc.hasPendingTrial());
  EXPECT_EQ(nl.node(g).cell.vth, original.vth);
  expectMatchesFullAnalysis(inc, nl);
}

TEST(IncrementalSta, RejectsANonPositiveResolvedClock) {
  // A lone primary input as the only endpoint: critical delay 0.
  Netlist nl;
  nl.markOutput(nl.addInput());
  EXPECT_THROW(IncrementalSta inc(nl), std::invalid_argument);
  EXPECT_THROW(IncrementalSta inc(nl, 0.0), std::invalid_argument);
}

TEST(IncrementalSta, FrozenClockStaysFixedAcrossSwaps) {
  Netlist nl = makeNetlist(200, 41);
  IncrementalSta inc(nl);  // clock frozen at the initial critical delay
  const double clock0 = inc.clockPeriod();
  const int g = inc.criticalPath()[1];
  ASSERT_EQ(nl.node(g).kind, Netlist::NodeKind::Gate);
  inc.apply(g, lib().recorner(nl.node(g).cell, VthClass::High,
                              nl.node(g).cell.vddDomain));
  EXPECT_EQ(inc.clockPeriod(), clock0);
  expectMatchesFullAnalysis(inc, nl);
}

}  // namespace
}  // namespace nano::sta
