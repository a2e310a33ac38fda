#include "signaling/mcml.h"

#include <gtest/gtest.h>

#include "util/units.h"

namespace nano::signaling {
namespace {

using namespace nano::units;

TEST(McmlGate, StaticPowerIndependentOfActivity) {
  McmlGate g;
  const double p1 = g.totalPower(1.0, 1 * GHz, 0.01);
  const double p2 = g.totalPower(1.0, 1 * GHz, 0.5);
  // Switching energy is tiny (swing^2); totals nearly equal.
  EXPECT_NEAR(p1, p2, 0.05 * p1);
}

TEST(McmlGate, RippleIsSmall) {
  EXPECT_LT(McmlGate{}.supplyCurrentRipple(), 0.1);
}

TEST(MatchedPair, DelaysMatchByConstruction) {
  const auto pair = buildMatchedPair(tech::nodeByFeature(70), 10 * fF);
  const double mcmlDelay =
      0.69 * (pair.mcml.swing / pair.mcml.tailCurrent) * pair.mcml.loadCap;
  EXPECT_NEAR(mcmlDelay, pair.cmos.delayS, 1e-6 * pair.cmos.delayS);
}

TEST(MatchedPair, McmlCurrentTransientFarLower) {
  // The paper's Section 4 point: current-steering logic has much smaller
  // current *transients* than CMOS at comparable performance — MCML draws
  // a near-constant tail current while CMOS spikes to its full drive.
  const auto pair = buildMatchedPair(tech::nodeByFeature(70), 10 * fF);
  const double mcmlTransient =
      pair.mcml.supplyCurrentRipple() * pair.mcml.tailCurrent;
  EXPECT_LT(mcmlTransient, 0.05 * pair.cmos.peakSupplyCurrentA);
  // The steady draw itself also stays below the CMOS peak.
  EXPECT_LT(pair.mcml.tailCurrent, 0.6 * pair.cmos.peakSupplyCurrentA);
}

TEST(MatchedPair, RejectsBadLoad) {
  EXPECT_THROW(buildMatchedPair(tech::nodeByFeature(70), 0.0),
               std::invalid_argument);
}

TEST(Crossover, McmlOnlyViableInNanometerRegime) {
  // At 180-70 nm CMOS wins at any realizable activity (crossover > 1);
  // once leakage explodes (50 and 35 nm) MCML wins for high-activity
  // datapaths — the paper's "if static CMOS leakage becomes intractable,
  // current steering families may provide solutions".
  for (int f : {180, 130, 100, 70}) {
    EXPECT_GT(mcmlCrossoverActivity(tech::nodeByFeature(f), 10 * fF), 1.0)
        << f;
  }
  for (int f : {50, 35}) {
    const double a = mcmlCrossoverActivity(tech::nodeByFeature(f), 10 * fF);
    EXPECT_GT(a, 0.0) << f;
    EXPECT_LT(a, 1.0) << f;
  }
}

TEST(Crossover, AboveCrossoverMcmlWins) {
  const auto& node = tech::nodeByFeature(70);
  const double load = 10 * fF;
  const double a = mcmlCrossoverActivity(node, load);
  const auto pair = buildMatchedPair(node, load);
  const double f = node.clockLocal;
  EXPECT_LT(pair.mcml.totalPower(node.vdd, f, a * 1.5),
            pair.cmos.totalPower(f, a * 1.5));
  EXPECT_GT(pair.mcml.totalPower(node.vdd, f, a * 0.5),
            pair.cmos.totalPower(f, a * 0.5));
}

TEST(Crossover, LeakierNodeLowersCrossover) {
  // As CMOS leakage explodes (50 nm @ 0.6 V), MCML's static burn is less
  // of a disadvantage: the crossover activity drops.
  const double at100 = mcmlCrossoverActivity(tech::nodeByFeature(100), 10 * fF);
  const double at50 = mcmlCrossoverActivity(tech::nodeByFeature(50), 10 * fF);
  EXPECT_LT(at50, at100);
}

}  // namespace
}  // namespace nano::signaling
