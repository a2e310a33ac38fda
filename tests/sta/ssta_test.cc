#include "sta/ssta.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/generator.h"
#include "sta/sta.h"
#include "support/inverter_chain.h"

namespace nano::sta {
namespace {

using circuit::Library;
using circuit::Netlist;

const Library& lib() {
  static const Library instance(tech::nodeByFeature(70));
  return instance;
}
const tech::TechNode& node70() { return tech::nodeByFeature(70); }

TEST(Ssta, MeanMatchesDeterministicStaOnChain) {
  // A chain has no MAX operations: the statistical mean equals the
  // deterministic arrival exactly.
  const Netlist nl = circuit::inverterChain(lib(), 10);
  const StatTiming st = analyzeStatistical(nl, node70());
  const TimingResult det = analyze(nl);
  EXPECT_NEAR(st.criticalMean, det.criticalPathDelay,
              1e-9 * det.criticalPathDelay);
}

TEST(Ssta, SigmaGrowsAsSqrtOfDepth) {
  // Independent per-stage variation: path sigma ~ sqrt(stages).
  const Netlist short_ = circuit::inverterChain(lib(), 4);
  const Netlist long_ = circuit::inverterChain(lib(), 16);
  const double s1 = analyzeStatistical(short_, node70()).criticalSigma;
  const double s2 = analyzeStatistical(long_, node70()).criticalSigma;
  EXPECT_NEAR(s2 / s1, 2.0, 0.3);  // boundary stages skew it slightly
}

TEST(Ssta, ClarkMaxRaisesMeanAboveBothInputs) {
  // Two equal-delay parallel branches converging: the statistical arrival
  // mean exceeds the deterministic max (the known MAX-of-Gaussians bias).
  const Library& l = lib();
  Netlist nl(0.0, 0.0);
  const int in = nl.addInput();
  const auto inv = l.pick(circuit::CellFunction::Inv, 1.0);
  const auto nand = l.pick(circuit::CellFunction::Nand2, 1.0);
  int brA = in, brB = in;
  for (int i = 0; i < 6; ++i) brA = nl.addGate(inv, {brA});
  for (int i = 0; i < 6; ++i) brB = nl.addGate(inv, {brB});
  const int join = nl.addGate(nand, {brA, brB});
  nl.markOutput(join);
  const StatTiming st = analyzeStatistical(nl, node70());
  const TimingResult det = analyze(nl);
  EXPECT_GT(st.criticalMean, det.criticalPathDelay * 1.0001);
}

TEST(Ssta, HigherDriveGatesVaryLess) {
  // Bigger devices average mismatch: sigma/mean drops with drive.
  auto chainSigmaOverMean = [&](double drive) {
    const Netlist nl = circuit::inverterChain(lib(), 8, drive);
    const StatTiming st = analyzeStatistical(nl, node70());
    return st.criticalSigma / st.criticalMean;
  };
  EXPECT_GT(chainSigmaOverMean(1.0), 1.5 * chainSigmaOverMean(4.0));
}

TEST(Ssta, SmallerNodesNeedMoreRelativeMargin) {
  // The paper's variability worry, quantified: the same design at a
  // smaller node has a larger sigma/mean at its critical endpoint.
  auto relSigma = [](int feature) {
    const Library l(tech::nodeByFeature(feature));
    util::Rng rng(13);
    circuit::GeneratorConfig cfg;
    cfg.gates = 300;
    const Netlist nl = circuit::randomLogic(l, cfg, rng);
    const StatTiming st = analyzeStatistical(nl, tech::nodeByFeature(feature));
    return st.criticalSigma / st.criticalMean;
  };
  EXPECT_GT(relSigma(35), 1.3 * relSigma(180));
}

TEST(Ssta, YieldAtMeanIsNearHalfForCriticalEndpoint) {
  const Netlist nl = circuit::inverterChain(lib(), 12);
  const StatTiming st = analyzeStatistical(nl, node70());
  const double y = timingYield(nl, st, st.criticalMean);
  EXPECT_GT(y, 0.4);
  EXPECT_LT(y, 0.6);
}

TEST(Ssta, ThreeSigmaMarginYieldsHigh) {
  util::Rng rng(29);
  circuit::GeneratorConfig cfg;
  cfg.gates = 400;
  const Netlist nl = circuit::pipelinedLogic(lib(), cfg, rng, 5);
  const StatTiming st = analyzeStatistical(nl, node70());
  const double clock = st.criticalMean + 3.0 * st.criticalSigma;
  EXPECT_GT(timingYield(nl, st, clock), 0.95);
}

TEST(Ssta, YieldMonotoneInClock) {
  const Netlist nl = circuit::inverterChain(lib(), 12);
  const StatTiming st = analyzeStatistical(nl, node70());
  double prev = 0.0;
  for (double k : {-2.0, 0.0, 2.0, 4.0}) {
    const double y = timingYield(nl, st, st.criticalMean + k * st.criticalSigma);
    EXPECT_GE(y, prev);
    prev = y;
  }
}

TEST(Ssta, RejectsNanSensitivity) {
  const Netlist nl = circuit::inverterChain(lib(), 2);
  SstaOptions opt;
  opt.delaySensitivity = std::nan("");
  EXPECT_THROW(analyzeStatistical(nl, node70(), opt), std::invalid_argument);
}

TEST(Ssta, RejectsNegativeSensitivity) {
  const Netlist nl = circuit::inverterChain(lib(), 2);
  SstaOptions opt;
  opt.delaySensitivity = -1.0;
  EXPECT_THROW(analyzeStatistical(nl, node70(), opt), std::invalid_argument);
}

}  // namespace
}  // namespace nano::sta
