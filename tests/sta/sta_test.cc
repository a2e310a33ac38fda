#include "sta/sta.h"

#include <gtest/gtest.h>

#include <vector>

#include "circuit/generator.h"
#include "sta/incremental.h"
#include "support/inverter_chain.h"

namespace nano::sta {
namespace {

using circuit::CellFunction;
using circuit::Library;
using circuit::Netlist;

const Library& lib() {
  static const Library instance(tech::nodeByFeature(100));
  return instance;
}

TEST(Sta, ChainArrivalAccumulates) {
  const Netlist nl = circuit::inverterChain(lib(), 5);
  const TimingResult t = analyze(nl);
  // Arrival at the output equals the sum of the five stage delays.
  double sum = 0.0;
  for (int g : nl.gateIds()) {
    sum += nl.node(g).cell.delay(nl.loadCap(g));
  }
  EXPECT_NEAR(t.criticalPathDelay, sum, 1e-15);
  EXPECT_NEAR(t.worstSlack, 0.0, 1e-18);  // self-timed
}

TEST(Sta, ExplicitClockGivesSlack) {
  const Netlist nl = circuit::inverterChain(lib(), 5);
  const TimingResult self = analyze(nl);
  const TimingResult relaxed = analyze(nl, 2.0 * self.criticalPathDelay);
  EXPECT_NEAR(relaxed.worstSlack, self.criticalPathDelay,
              1e-3 * self.criticalPathDelay);
  EXPECT_TRUE(relaxed.meetsTiming());
}

TEST(Sta, TightClockViolates) {
  const Netlist nl = circuit::inverterChain(lib(), 5);
  const TimingResult self = analyze(nl);
  const TimingResult tight = analyze(nl, 0.5 * self.criticalPathDelay);
  EXPECT_FALSE(tight.meetsTiming());
  EXPECT_LT(tight.worstSlack, 0.0);
}

TEST(Sta, CriticalPathIsContiguous) {
  util::Rng rng(11);
  circuit::GeneratorConfig cfg;
  cfg.gates = 400;
  const Netlist nl = circuit::randomLogic(lib(), cfg, rng);
  const TimingResult t = analyze(nl);
  ASSERT_GE(t.criticalPath.size(), 2u);
  // Path starts at an input, ends at an output, consecutive nodes are
  // connected.
  EXPECT_EQ(nl.node(t.criticalPath.front()).kind,
            Netlist::NodeKind::PrimaryInput);
  EXPECT_TRUE(nl.node(t.criticalPath.back()).isOutput);
  for (std::size_t i = 1; i < t.criticalPath.size(); ++i) {
    const auto& fanins = nl.node(t.criticalPath[i]).fanins;
    EXPECT_NE(std::find(fanins.begin(), fanins.end(), t.criticalPath[i - 1]),
              fanins.end());
  }
}

TEST(Sta, SlackNonNegativeAtSelfClock) {
  util::Rng rng(13);
  circuit::GeneratorConfig cfg;
  cfg.gates = 300;
  const Netlist nl = circuit::randomLogic(lib(), cfg, rng);
  const TimingResult t = analyze(nl);
  for (int i = 0; i < nl.nodeCount(); ++i) {
    EXPECT_GE(t.slack[static_cast<std::size_t>(i)], -1e-15);
  }
}

TEST(Sta, SlackConsistencyAtEndpoints) {
  util::Rng rng(17);
  circuit::GeneratorConfig cfg;
  cfg.gates = 300;
  const Netlist nl = circuit::randomLogic(lib(), cfg, rng);
  const TimingResult t = analyze(nl);
  for (int id : nl.outputs()) {
    const double budget = t.arrival[static_cast<std::size_t>(id)] +
                          t.slack[static_cast<std::size_t>(id)];
    // An endpoint that also feeds downstream logic can have a tighter
    // required time than the clock; never a looser one.
    EXPECT_LE(budget, t.clockPeriod + 1e-15);
    if (nl.node(id).fanouts.empty()) {
      EXPECT_NEAR(budget, t.clockPeriod, 1e-15);
    }
  }
}

TEST(Sta, SlackRichProfileMatchesPaperStatistic) {
  // Paper Section 2.4: "over half of all timing paths commonly use less
  // than half the clock cycle" — our default generator profile reproduces
  // that.
  util::Rng rng(23);
  circuit::GeneratorConfig cfg;
  cfg.gates = 2000;
  cfg.outputs = 128;
  const Netlist nl = circuit::pipelinedLogic(lib(), cfg, rng, 8);
  const TimingResult t = analyze(nl);
  EXPECT_GT(fractionOfPathsFasterThan(t, nl, 0.5), 0.5);
}

TEST(Sta, PathDelayHistogramNormalized) {
  util::Rng rng(29);
  circuit::GeneratorConfig cfg;
  cfg.gates = 500;
  const Netlist nl = circuit::randomLogic(lib(), cfg, rng);
  const TimingResult t = analyze(nl);
  const auto h = pathDelayHistogram(t, nl, 10);
  EXPECT_EQ(h.total(), nl.outputs().size());
  double sum = 0.0;
  for (int b = 0; b < h.bins(); ++b) sum += h.fraction(b);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// Equal arrivals go to the last candidate, both among the endpoints (in
// output order) and among a gate's fanins; IncrementalSta shares the rule.
TEST(Sta, TiesGoToTheLastEndpointAndTheLastFanin) {
  const circuit::Cell inv = lib().pick(CellFunction::Inv, 1.0);
  const Netlist chain = circuit::inverterChain(lib(), 1);
  auto twoInverters = [&](Netlist& nl) {
    const int in = nl.addInput();
    return std::vector<int>{in, nl.addGate(inv, {in}), nl.addGate(inv, {in})};
  };

  Netlist ends(chain.wireCapPerFanout(), chain.outputLoadCap());
  const std::vector<int> e = twoInverters(ends);
  ends.markOutput(e[1]);
  ends.markOutput(e[2]);
  const TimingResult t = analyze(ends);
  ASSERT_EQ(t.arrival[static_cast<std::size_t>(e[1])],
            t.arrival[static_cast<std::size_t>(e[2])]);
  EXPECT_EQ(t.criticalPath, (std::vector<int>{e[0], e[2]}));
  EXPECT_EQ(IncrementalSta(ends).criticalPath(), t.criticalPath);

  Netlist fanins(chain.wireCapPerFanout(), chain.outputLoadCap());
  const std::vector<int> f = twoInverters(fanins);
  const int nand =
      fanins.addGate(lib().pick(CellFunction::Nand2, 1.0), {f[1], f[2]});
  fanins.markOutput(nand);
  const TimingResult u = analyze(fanins);
  EXPECT_EQ(u.criticalPath, (std::vector<int>{f[0], f[2], nand}));
  EXPECT_EQ(IncrementalSta(fanins).criticalPath(), u.criticalPath);
}

TEST(Sta, BiggerLoadSlowsPath) {
  // Same chain, heavier per-fanout wire: longer critical path.
  const Netlist light = circuit::inverterChain(lib(), 5);
  Netlist heavy(10.0 * light.wireCapPerFanout(), light.outputLoadCap());
  int prev = heavy.addInput();
  const circuit::Cell inv = lib().pick(CellFunction::Inv, 1.0);
  for (int i = 0; i < 5; ++i) prev = heavy.addGate(inv, {prev});
  heavy.markOutput(prev);
  EXPECT_GT(analyze(heavy).criticalPathDelay,
            analyze(light).criticalPathDelay);
}

}  // namespace
}  // namespace nano::sta
