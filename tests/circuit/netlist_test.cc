#include "circuit/netlist.h"

#include <gtest/gtest.h>

#include "circuit/library.h"
#include "util/rng.h"
#include "util/units.h"

namespace nano::circuit {
namespace {

using namespace nano::units;

struct Fixture {
  Library lib{tech::nodeByFeature(100)};
  Cell inv = lib.pick(CellFunction::Inv, 1.0);
  Cell nand = lib.pick(CellFunction::Nand2, 1.0);
};

TEST(Netlist, BuildAndCounts) {
  Fixture f;
  Netlist nl(0.0, 0.0);
  const int a = nl.addInput();
  const int b = nl.addInput();
  const int g = nl.addGate(f.nand, {a, b});
  nl.markOutput(g);
  EXPECT_EQ(nl.inputCount(), 2);
  EXPECT_EQ(nl.gateCount(), 1);
  EXPECT_EQ(nl.nodeCount(), 3);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, FanoutsMaintained) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  const int g1 = nl.addGate(f.inv, {a});
  const int g2 = nl.addGate(f.inv, {g1});
  const int g3 = nl.addGate(f.inv, {g1});
  nl.markOutput(g2);
  nl.markOutput(g3);
  ASSERT_EQ(nl.node(g1).fanouts.size(), 2u);
  EXPECT_EQ(nl.node(g1).fanouts[0], g2);
  EXPECT_EQ(nl.node(g1).fanouts[1], g3);
}

TEST(Netlist, LoadCapSumsFanoutsWireAndOutput) {
  Fixture f;
  const double wirePerFo = 1 * fF;
  const double outLoad = 7 * fF;
  Netlist nl(wirePerFo, outLoad);
  const int a = nl.addInput();
  const int g1 = nl.addGate(f.inv, {a});
  const int g2 = nl.addGate(f.nand, {g1, a});
  const int g3 = nl.addGate(f.inv, {g1});
  nl.markOutput(g2);
  nl.markOutput(g3);
  nl.markOutput(g1);
  const double expected = f.nand.inputCap + f.inv.inputCap + 2 * wirePerFo +
                          outLoad;
  EXPECT_NEAR(nl.loadCap(g1), expected, 1e-21);
  (void)g2;
}

TEST(Netlist, MarkOutputIdempotent) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  const int g = nl.addGate(f.inv, {a});
  nl.markOutput(g);
  nl.markOutput(g);
  EXPECT_EQ(nl.outputs().size(), 1u);
}

TEST(Netlist, ReplaceCellKeepsTopology) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  const int g = nl.addGate(f.inv, {a});
  nl.markOutput(g);
  const Cell big = f.lib.pick(CellFunction::Inv, 8.0);
  nl.replaceCell(g, big);
  EXPECT_DOUBLE_EQ(nl.node(g).cell.drive, 8.0);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, ReplaceCellRejectsFunctionChange) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  const int g = nl.addGate(f.inv, {a});
  EXPECT_THROW(nl.replaceCell(g, f.nand), std::invalid_argument);
  EXPECT_THROW(nl.replaceCell(a, f.inv), std::invalid_argument);
}

TEST(Netlist, AddGateRejections) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  EXPECT_THROW(nl.addGate(f.nand, {a}), std::invalid_argument);  // arity
  EXPECT_THROW(nl.addGate(f.inv, {5}), std::invalid_argument);   // bad id
  EXPECT_THROW(nl.addGate(f.inv, {-1}), std::invalid_argument);
}

TEST(Netlist, ValidateRequiresOutputs) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  nl.addGate(f.inv, {a});
  EXPECT_THROW(nl.validate(), std::logic_error);
}

TEST(Netlist, TotalAreaSumsGates) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  const int g1 = nl.addGate(f.inv, {a});
  nl.addGate(f.inv, {g1});
  EXPECT_NEAR(nl.totalArea(), 2.0 * f.inv.area, 1e-18);
}

TEST(Netlist, GateIdsSkipInputs) {
  Fixture f;
  Netlist nl;
  nl.addInput();
  const int a2 = nl.addInput();
  const int g = nl.addGate(f.inv, {a2});
  const auto ids = nl.gateIds();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], g);
}

TEST(VddViolations, LowDrivingHighFlagged) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  const Cell low = f.lib.pick(CellFunction::Inv, 1.0, VthClass::Low,
                              VddDomain::Low);
  const int gLow = nl.addGate(low, {a});
  const int gHigh = nl.addGate(f.inv, {gLow});
  nl.markOutput(gHigh);
  const auto bad = nl.vddViolations();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], gLow);
}

TEST(VddViolations, ConverterCuresCrossing) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  const Cell low =
      f.lib.pick(CellFunction::Inv, 1.0, VthClass::Low, VddDomain::Low);
  const Cell lc = f.lib.pick(CellFunction::LevelConverter, 1.0, VthClass::Low,
                             VddDomain::High);
  const int gLow = nl.addGate(low, {a});
  const int conv = nl.addGate(lc, {gLow});
  const int gHigh = nl.addGate(f.inv, {conv});
  nl.markOutput(gHigh);
  EXPECT_TRUE(nl.vddViolations().empty());
}

TEST(VddViolations, LowDrivingLowIsFine) {
  Fixture f;
  Netlist nl;
  const int a = nl.addInput();
  const Cell low =
      f.lib.pick(CellFunction::Inv, 1.0, VthClass::Low, VddDomain::Low);
  const int g1 = nl.addGate(low, {a});
  const int g2 = nl.addGate(low, {g1});
  nl.markOutput(g2);
  EXPECT_TRUE(nl.vddViolations().empty());
}

TEST(DefaultWireCap, HalfAvgWirePerFanout) {
  const auto& node = tech::nodeByFeature(100);
  EXPECT_NEAR(defaultWireCapPerFanout(node),
              0.5 * node.localWireCapPerM * node.avgLocalWireLength, 1e-21);
}

// loadCap is served from a cache the mutators keep valid; every mutation
// path must leave it equal to the from-scratch sum.
TEST(LoadCapCache, ReplaceCellRefreshesFaninLoads) {
  Fixture f;
  Netlist nl(1e-15, 0.0);
  const int a = nl.addInput();
  const int g1 = nl.addGate(f.inv, {a});
  const int g2 = nl.addGate(f.inv, {g1});
  nl.markOutput(g2);
  const double before = nl.loadCap(g1);

  // Doubling g2's drive doubles its input cap; g1's cached load follows.
  Cell big = f.lib.generateCustom(CellFunction::Inv, 2.0);
  nl.replaceCell(g2, big);
  EXPECT_DOUBLE_EQ(nl.loadCap(g1), before - f.inv.inputCap + big.inputCap);
  // The swapped gate's own load is untouched by its cell swap.
  EXPECT_DOUBLE_EQ(nl.loadCap(g2), 1e-15 * 0 + nl.outputLoadCap());
}

TEST(LoadCapCache, AddGateAndMarkOutputRefreshDrivers) {
  Fixture f;
  Netlist nl(1e-15, 3e-15);
  const int a = nl.addInput();
  const int g1 = nl.addGate(f.inv, {a});
  EXPECT_DOUBLE_EQ(nl.loadCap(g1), 0.0);  // drives nothing yet

  const int g2 = nl.addGate(f.inv, {g1});  // new fanout: cap + wire
  EXPECT_DOUBLE_EQ(nl.loadCap(g1), f.inv.inputCap + 1e-15);
  EXPECT_DOUBLE_EQ(nl.loadCap(a), f.inv.inputCap + 1e-15);

  nl.markOutput(g2);  // external load lands on the flagged node only
  EXPECT_DOUBLE_EQ(nl.loadCap(g2), 3e-15);
  EXPECT_DOUBLE_EQ(nl.loadCap(g1), f.inv.inputCap + 1e-15);
}

// From-scratch load of one node: its fanouts' input caps summed in fanout
// order, then the wire and external terms.
double scratchLoadCap(const Netlist& nl, int id) {
  const Netlist::Node& n = nl.node(id);
  double cap = 0.0;
  for (int fo : n.fanouts) cap += nl.node(fo).cell.inputCap;
  cap += nl.wireCapPerFanout() * static_cast<double>(n.fanouts.size());
  if (n.isOutput) cap += nl.outputLoadCap();
  return cap;
}

TEST(LoadCapCache, RandomMutationSequencesMatchFromScratchSums) {
  Fixture f;
  constexpr CellFunction kFunctions[] = {CellFunction::Inv,
                                         CellFunction::Nand2,
                                         CellFunction::Nor3,
                                         CellFunction::Xor2};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed);
    Netlist nl(0.37e-15, 2.1e-15);
    for (int i = 0; i < 6; ++i) nl.addInput();
    for (int op = 0; op < 400; ++op) {
      const double r = rng.uniform();
      const std::vector<int> gates = nl.gateIds();
      if (r < 0.6 || gates.empty()) {
        // Uniform fanins: early nodes collect long fanout lists, and a
        // gate may take the same node on several pins.
        const Cell cell =
            f.lib.generateCustom(kFunctions[rng.uniformInt(0, 3)],
                                 rng.uniform(0.5, 8.0));
        std::vector<int> fanins;
        for (int k = 0; k < cell.fanin(); ++k) {
          fanins.push_back(rng.uniformInt(0, nl.nodeCount() - 1));
        }
        nl.addGate(cell, std::move(fanins));
      } else if (r < 0.75) {
        nl.markOutput(rng.uniformInt(0, nl.nodeCount() - 1));
      } else {
        const int id = gates[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(gates.size()) - 1))];
        nl.replaceCell(id, f.lib.generateCustom(nl.node(id).cell.function,
                                                rng.uniform(0.5, 8.0)));
      }
      for (int id = 0; id < nl.nodeCount(); ++id) {
        ASSERT_EQ(nl.loadCap(id), scratchLoadCap(nl, id))
            << "seed " << seed << " op " << op << " node " << id;
      }
    }
  }
}

}  // namespace
}  // namespace nano::circuit
