// The one-draft generators against their block-by-block references
// (support/generator_oracle.h): every node's kind, cell bits, fanins,
// fanouts, output flag and load-cap bits, the output order, the counts,
// the writeNetlist bytes and the RNG state after the call must all be
// equal, and a bad config must throw the same exception type and message.
#include "circuit/generator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <typeinfo>

#include "circuit/library.h"
#include "circuit/netlist_io.h"
#include "support/generator_oracle.h"
#include "tech/itrs.h"
#include "util/rng.h"

namespace nano::circuit {
namespace {

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool sameCell(const Cell& a, const Cell& b) {
  return a.function == b.function && a.vth == b.vth &&
         a.vddDomain == b.vddDomain && sameBits(a.drive, b.drive) &&
         sameBits(a.vdd, b.vdd) && sameBits(a.inputCap, b.inputCap) &&
         sameBits(a.driveResistance, b.driveResistance) &&
         sameBits(a.selfCap, b.selfCap) && sameBits(a.leakage, b.leakage) &&
         sameBits(a.area, b.area);
}

std::string serialize(const Netlist& nl) {
  std::ostringstream os;
  writeNetlist(os, nl);
  return os.str();
}

void expectSameNetlist(const Netlist& got, const Netlist& want) {
  ASSERT_EQ(got.nodeCount(), want.nodeCount());
  EXPECT_EQ(got.gateCount(), want.gateCount());
  EXPECT_EQ(got.inputCount(), want.inputCount());
  EXPECT_EQ(got.outputs(), want.outputs());
  EXPECT_TRUE(sameBits(got.wireCapPerFanout(), want.wireCapPerFanout()));
  EXPECT_TRUE(sameBits(got.outputLoadCap(), want.outputLoadCap()));
  for (int i = 0; i < want.nodeCount(); ++i) {
    const Netlist::Node& a = got.node(i);
    const Netlist::Node& b = want.node(i);
    ASSERT_EQ(a.kind, b.kind) << "node " << i;
    ASSERT_TRUE(sameCell(a.cell, b.cell)) << "node " << i;
    ASSERT_EQ(a.fanins, b.fanins) << "node " << i;
    ASSERT_EQ(a.fanouts, b.fanouts) << "node " << i;
    ASSERT_EQ(a.isOutput, b.isOutput) << "node " << i;
    ASSERT_TRUE(sameBits(got.loadCap(i), want.loadCap(i))) << "node " << i;
  }
  EXPECT_EQ(serialize(got), serialize(want));
}

void expectPipelinedMatches(const Library& library,
                            const GeneratorConfig& config, int blocks,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  util::Rng oracleRng(seed);
  const Netlist got = pipelinedLogic(library, config, rng, blocks);
  const Netlist want =
      oracle::pipelinedLogicReference(library, config, oracleRng, blocks);
  expectSameNetlist(got, want);
  EXPECT_TRUE(rng.engine() == oracleRng.engine()) << "RNG state differs";
}

void expectRandomMatches(const Library& library, const GeneratorConfig& config,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  util::Rng oracleRng(seed);
  const Netlist got = randomLogic(library, config, rng);
  const Netlist want = oracle::randomLogicReference(library, config, oracleRng);
  expectSameNetlist(got, want);
  EXPECT_TRUE(rng.engine() == oracleRng.engine()) << "RNG state differs";
}

/// "<type>: <message>" of what `f` throws, or "" when it returns.
template <typename F>
std::string thrown(F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  return "";
}

TEST(GeneratorOracle, PipelinedMatchesAcrossSizesAndBlockCounts) {
  const Library& library = roadmapLibrary(100);
  for (const int gates : {64, 65, 1000, 1777, 4000, 20000}) {
    for (const int blocks : {1, 2, 3, 8, 12, 64}) {
      SCOPED_TRACE(::testing::Message()
                   << gates << " gates, " << blocks << " blocks");
      expectPipelinedMatches(library, scaledConfig(gates), blocks,
                             static_cast<std::uint64_t>(gates + blocks));
    }
  }
}

TEST(GeneratorOracle, PipelinedMatchesOnEveryNodeAndSeed) {
  for (const int nm : tech::roadmapFeatures()) {
    for (const std::uint64_t seed : {1u, 2u, 7u, 20011u, 4294967295u}) {
      SCOPED_TRACE(::testing::Message() << nm << " nm, seed " << seed);
      expectPipelinedMatches(roadmapLibrary(nm), scaledConfig(2500), 8, seed);
    }
  }
}

TEST(GeneratorOracle, RandomLogicMatchesOnHandMadeConfigs) {
  const Library& library = roadmapLibrary(50);
  GeneratorConfig oneInput;
  oneInput.inputs = 1;
  oneInput.gates = 300;
  GeneratorConfig manyOutputs;
  manyOutputs.inputs = 5;
  manyOutputs.gates = 40;
  manyOutputs.outputs = 90;
  manyOutputs.depth = 6;
  GeneratorConfig uniform;
  uniform.gates = 700;
  uniform.shallowBias = 1.0;
  GeneratorConfig noEarly;
  noEarly.gates = 500;
  noEarly.earlyOutputFraction = 0.0;
  GeneratorConfig allEarly;
  allEarly.gates = 500;
  allEarly.earlyOutputFraction = 1.0;
  GeneratorConfig deepest;
  deepest.inputs = 3;
  deepest.gates = 30;
  deepest.depth = 30;
  int c = 0;
  for (const GeneratorConfig& config :
       {GeneratorConfig{}, oneInput, manyOutputs, uniform, noEarly, allEarly,
        deepest}) {
    SCOPED_TRACE(::testing::Message() << "config " << c++);
    for (const std::uint64_t seed : {3u, 11u, 99u}) {
      expectRandomMatches(library, config, seed);
      expectPipelinedMatches(library, config, 3, seed);
    }
  }
}

TEST(GeneratorOracle, BadConfigsThrowTheSameTypeAndMessage) {
  const Library& library = roadmapLibrary(70);
  GeneratorConfig fewGates;
  fewGates.gates = 5;
  fewGates.depth = 10;
  GeneratorConfig noInputs;
  noInputs.inputs = 0;
  GeneratorConfig noDepth;
  noDepth.depth = 0;
  GeneratorConfig negativeDepth;
  negativeDepth.depth = -12;
  for (const GeneratorConfig& config :
       {fewGates, noInputs, noDepth, negativeDepth}) {
    const std::string want = thrown([&] {
      util::Rng rng(5);
      (void)oracle::randomLogicReference(library, config, rng);
    });
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(thrown([&] {
                util::Rng rng(5);
                (void)randomLogic(library, config, rng);
              }),
              want);
    for (const int blocks : {1, 4}) {
      const std::string wantPipelined = thrown([&] {
        util::Rng rng(5);
        (void)oracle::pipelinedLogicReference(library, config, rng, blocks);
      });
      EXPECT_EQ(thrown([&] {
                  util::Rng rng(5);
                  (void)pipelinedLogic(library, config, rng, blocks);
                }),
                wantPipelined)
          << blocks << " blocks";
    }
  }
  for (const int blocks : {0, -3}) {
    const std::string want = thrown([&] {
      util::Rng rng(5);
      (void)oracle::pipelinedLogicReference(library, GeneratorConfig{}, rng,
                                            blocks);
    });
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(thrown([&] {
                util::Rng rng(5);
                (void)pipelinedLogic(library, GeneratorConfig{}, rng, blocks);
              }),
              want);
  }
}

}  // namespace
}  // namespace nano::circuit
