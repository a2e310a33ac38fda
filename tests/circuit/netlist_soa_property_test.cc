// Property tests for the NetlistSoA mirror: seeded random netlists at
// 100 / 1k / 10k / 100k gates round-trip object -> SoA -> object with
// byte-identical netlist_io serialization, the flat adjacency +
// timing-operand arrays agree with the object netlist exactly, and the
// one-pass level schedule equals the Kahn levelizer's (support/levelize.h).
#include "circuit/netlist_soa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "circuit/generator.h"
#include "circuit/library.h"
#include "circuit/netlist.h"
#include "circuit/netlist_io.h"
#include "opt/level_converter.h"
#include "support/levelize.h"
#include "tech/itrs.h"
#include "util/rng.h"

namespace nano::circuit {
namespace {

const Library& lib() {
  static const Library instance(tech::nodeByFeature(35));
  return instance;
}

Netlist makeRandom(int gates, std::uint64_t seed) {
  util::Rng rng(seed);
  return pipelinedLogic(lib(), scaledConfig(gates), rng, 4);
}

std::string serialize(const Netlist& nl) {
  std::ostringstream os;
  writeNetlist(os, nl);
  return os.str();
}

// The mirror's level schedule against levelize() over the netlist's own
// fanin lists: levelOf, order, levelOffsets and levelCount all equal.
void expectScheduleMatchesLevelize(const Netlist& nl) {
  std::vector<std::uint32_t> offsets{0};
  std::vector<std::uint32_t> fanins;
  for (int id = 0; id < nl.nodeCount(); ++id) {
    for (int f : nl.node(id).fanins) {
      fanins.push_back(static_cast<std::uint32_t>(f));
    }
    offsets.push_back(static_cast<std::uint32_t>(fanins.size()));
  }
  const LevelSchedule want =
      levelize(static_cast<std::uint32_t>(nl.nodeCount()), offsets, fanins);
  ASSERT_TRUE(want.ok()) << want.message;
  const NetlistSoA soa(nl, {.keepCells = false});
  ASSERT_EQ(soa.levelCount(), want.levelCount);
  for (std::uint32_t id = 0; id < soa.nodeCount(); ++id) {
    ASSERT_EQ(soa.levelOf(id), want.levelOf[id]) << "node " << id;
  }
  const auto order = soa.order();
  EXPECT_TRUE(std::equal(order.begin(), order.end(), want.order.begin(),
                         want.order.end()));
  const auto offsetsGot = soa.levelOffsets();
  EXPECT_TRUE(std::equal(offsetsGot.begin(), offsetsGot.end(),
                         want.levelOffsets.begin(), want.levelOffsets.end()));
}

class SoaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SoaPropertyTest, MirrorsCountsFlagsAndAdjacency) {
  const Netlist nl = makeRandom(GetParam(), 11u * GetParam());
  const NetlistSoA soa(nl);

  ASSERT_EQ(soa.nodeCount(), static_cast<std::uint32_t>(nl.nodeCount()));
  EXPECT_EQ(soa.gateCount(), static_cast<std::uint32_t>(nl.gateCount()));
  EXPECT_EQ(soa.inputCount(), static_cast<std::uint32_t>(nl.inputCount()));
  EXPECT_EQ(soa.wireCapPerFanout(), nl.wireCapPerFanout());
  EXPECT_EQ(soa.outputLoadCap(), nl.outputLoadCap());

  // Endpoint list in insertion order.
  ASSERT_EQ(soa.outputs().size(), nl.outputs().size());
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    EXPECT_EQ(static_cast<int>(soa.outputs()[i]), nl.outputs()[i]);
  }

  for (int id = 0; id < nl.nodeCount(); ++id) {
    const auto u = static_cast<std::uint32_t>(id);
    const auto& node = nl.node(id);
    ASSERT_EQ(soa.isGate(u), node.kind == Netlist::NodeKind::Gate);
    ASSERT_EQ(soa.isOutput(u), node.isOutput);

    // Edge lists preserve object order exactly (stronger than the multiset
    // equality the round-trip needs — and it implies it).
    const auto fi = soa.fanins(u);
    ASSERT_EQ(fi.size(), node.fanins.size());
    for (std::size_t k = 0; k < fi.size(); ++k) {
      ASSERT_EQ(static_cast<int>(fi[k]), node.fanins[k]);
    }
    const auto fo = soa.fanouts(u);
    ASSERT_EQ(fo.size(), node.fanouts.size());
    for (std::size_t k = 0; k < fo.size(); ++k) {
      ASSERT_EQ(static_cast<int>(fo[k]), node.fanouts[k]);
    }

    // Timing operands are bit-identical, so gateDelay matches Cell::delay.
    ASSERT_EQ(soa.loadCap(u), nl.loadCap(id));
    if (node.kind == Netlist::NodeKind::Gate) {
      ASSERT_EQ(soa.gateDelay(u), node.cell.delay(nl.loadCap(id)));
      ASSERT_EQ(soa.inputCap(u), node.cell.inputCap);
    } else {
      ASSERT_EQ(soa.gateDelay(u), 0.0);
    }
  }
}

TEST_P(SoaPropertyTest, RoundTripSerializationIsByteIdentical) {
  const Netlist nl = makeRandom(GetParam(), 97u * GetParam() + 3);
  const NetlistSoA soa(nl);  // keepCells defaults on
  ASSERT_TRUE(soa.hasCells());
  const Netlist back = soa.toNetlist();
  EXPECT_EQ(serialize(back), serialize(nl));
}

TEST_P(SoaPropertyTest, LevelScheduleCoversAndRespectsTopology) {
  const Netlist nl = makeRandom(GetParam(), 5u * GetParam() + 1);
  const NetlistSoA soa(nl, {.keepCells = false});
  ASSERT_GT(soa.levelCount(), 0u);
  const auto order = soa.order();
  ASSERT_EQ(order.size(), soa.nodeCount());
  std::vector<bool> seen(soa.nodeCount(), false);
  for (const std::uint32_t id : order) {
    ASSERT_LT(id, soa.nodeCount());
    ASSERT_FALSE(seen[id]);
    seen[id] = true;
  }
  for (std::uint32_t id = 0; id < soa.nodeCount(); ++id) {
    for (const std::uint32_t f : soa.fanins(id)) {
      ASSERT_GT(soa.levelOf(id), soa.levelOf(f));
    }
  }
}

TEST_P(SoaPropertyTest, LevelScheduleEqualsLevelize) {
  expectScheduleMatchesLevelize(makeRandom(GetParam(), 13u * GetParam() + 2));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SoaPropertyTest,
                         ::testing::Values(100, 1000, 10000, 100000));

// After each replaceCell + setCell, every timing operand of the mirror
// equals a mirror rebuilt from scratch: setCell copies everything a swap
// changes (the gate's operands and its fanins' loads) and nothing else.
TEST(NetlistSoATest, SetCellTracksReplaceCellBitForBit) {
  Netlist nl = makeRandom(2000, 42);
  NetlistSoA soa(nl);
  util::Rng rng(7);
  const auto gates = nl.gateIds();
  for (int trial = 0; trial < 200; ++trial) {
    const int g = gates[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(gates.size()) - 1))];
    const auto& node = nl.node(g);
    const Cell swapped = lib().generateCustom(
        node.cell.function, node.cell.drive * rng.uniform(0.5, 2.0),
        node.cell.vth, node.cell.vddDomain);
    nl.replaceCell(g, swapped);
    soa.setCell(static_cast<std::uint32_t>(g), nl);
    const auto u = static_cast<std::uint32_t>(g);
    ASSERT_EQ(soa.gateDelay(u), nl.node(g).cell.delay(nl.loadCap(g)));
    ASSERT_EQ(soa.cell(u).drive, swapped.drive);
    for (int f : nl.node(g).fanins) {
      const auto fu = static_cast<std::uint32_t>(f);
      ASSERT_EQ(soa.loadCap(fu), nl.loadCap(f));
      ASSERT_EQ(soa.gateDelay(fu),
                nl.node(f).kind == Netlist::NodeKind::Gate
                    ? nl.node(f).cell.delay(nl.loadCap(f))
                    : 0.0);
    }
    if (trial % 50 == 49) {
      const NetlistSoA fresh(nl, {.keepCells = false});
      for (std::uint32_t id = 0; id < soa.nodeCount(); ++id) {
        ASSERT_EQ(soa.loadCap(id), fresh.loadCap(id)) << "node " << id;
        ASSERT_EQ(soa.driveResistance(id), fresh.driveResistance(id));
        ASSERT_EQ(soa.selfCap(id), fresh.selfCap(id));
        ASSERT_EQ(soa.inputCap(id), fresh.inputCap(id));
      }
    }
  }
  ASSERT_FALSE(soa.isGate(0));
  EXPECT_THROW(soa.setCell(0, nl), std::invalid_argument);
}

TEST(NetlistSoATest, RebuildReusesArenaAtSteadyState) {
  const Netlist nl = makeRandom(5000, 9);
  NetlistSoA soa(nl, {.keepCells = false});
  const std::int64_t growth = soa.arenaGrowthCount();
  ASSERT_GT(soa.arenaBytes(), 0u);
  for (int i = 0; i < 5; ++i) soa.rebuild(nl, {.keepCells = false});
  EXPECT_EQ(soa.arenaGrowthCount(), growth);
}

TEST(NetlistSoATest, LevelScheduleEqualsLevelizeOnStructuredNetlists) {
  for (const int bits : {1, 8, 32}) {
    SCOPED_TRACE(::testing::Message() << bits << "-bit adders");
    expectScheduleMatchesLevelize(rippleCarryAdder(lib(), bits));
    expectScheduleMatchesLevelize(koggeStoneAdder(lib(), bits));
  }

  // Converters on every crossing of a design with a third of its gates
  // moved to the low supply.
  Netlist mixed = makeRandom(1500, 23);
  const auto gates = mixed.gateIds();
  for (std::size_t k = 0; k < gates.size(); k += 3) {
    mixed.replaceCell(gates[k], lib().recorner(mixed.node(gates[k]).cell,
                                               VthClass::Low, VddDomain::Low));
  }
  const opt::ConversionReport converted =
      opt::insertLevelConverters(mixed, lib());
  ASSERT_GT(converted.convertersAdded, 0);
  expectScheduleMatchesLevelize(converted.netlist);

  // A gate that lists one fanin twice.
  Netlist repeated;
  const int in = repeated.addInput();
  const Cell& nand = lib().pick(CellFunction::Nand2, 1.0);
  const int a = repeated.addGate(nand, {in, in});
  repeated.markOutput(repeated.addGate(nand, {a, a}));
  expectScheduleMatchesLevelize(repeated);

  expectScheduleMatchesLevelize(Netlist{});
}

TEST(NetlistSoATest, ToNetlistWithoutCellsThrows) {
  const Netlist nl = makeRandom(100, 1);
  const NetlistSoA soa(nl, {.keepCells = false});
  EXPECT_FALSE(soa.hasCells());
  EXPECT_THROW((void)soa.toNetlist(), std::logic_error);
}

}  // namespace
}  // namespace nano::circuit
