#include "powergrid/transient.h"

#include <gtest/gtest.h>

namespace nano::powergrid {
namespace {

TEST(Wakeup, NoiseScalesWithBumpInductanceShare) {
  const auto& node = tech::nodeByFeature(35);
  TransientConfig cfg;
  cfg.planeInductance = 0.0;  // isolate the bump term
  const TransientReport few = wakeupTransient(node, 100, cfg);
  const TransientReport many = wakeupTransient(node, 1000, cfg);
  EXPECT_NEAR(few.noiseVoltage / many.noiseVoltage, 10.0, 1e-6);
}

TEST(Wakeup, DeltaCurrentFromIdleFraction) {
  const auto& node = tech::nodeByFeature(35);
  TransientConfig cfg;
  cfg.idleFraction = 0.05;
  const TransientReport rep = wakeupTransient(node, 1500, cfg);
  EXPECT_NEAR(rep.deltaCurrent, 0.95 * node.supplyCurrent(), 1.0);
  EXPECT_NEAR(rep.dIdt, rep.deltaCurrent / cfg.wakeTime, 1e-3);
}

TEST(Wakeup, MinPitchBeatsItrsPadCount) {
  // Paper Section 4: "using the minimum bump pitch will help here as well,
  // providing a low inductance path".
  const auto& node = tech::nodeByFeature(35);
  const TransientReport itrs = wakeupTransient(node, node.itrsVddPads);
  const TransientReport dense =
      wakeupTransient(node, minPitchVddBumps(node));
  EXPECT_LT(dense.noiseVoltage, 0.6 * itrs.noiseVoltage);
}

TEST(Wakeup, SlowerRampIsQuieter) {
  const auto& node = tech::nodeByFeature(35);
  TransientConfig fast, slow;
  fast.wakeTime = 2e-9;
  slow.wakeTime = 20e-9;
  EXPECT_GT(wakeupTransient(node, 1500, fast).noiseVoltage,
            5.0 * wakeupTransient(node, 1500, slow).noiseVoltage);
}

TEST(Wakeup, DecapSizedToBudget) {
  const auto& node = tech::nodeByFeature(35);
  TransientConfig cfg;
  const TransientReport rep = wakeupTransient(node, 1500, cfg);
  EXPECT_NEAR(rep.decapNeeded,
              rep.deltaCurrent * cfg.wakeTime /
                  (2.0 * cfg.noiseBudgetFraction * node.vdd),
              1e-12);
  EXPECT_GT(rep.decapNeeded, 1e-9);  // hundreds of nF of on-die decap
}

TEST(Wakeup, MinPitchBumpCountLarge) {
  // ~20k+ Vdd bumps available at the 80 um minimum pitch on a 560 mm^2 die.
  EXPECT_GT(minPitchVddBumps(tech::nodeByFeature(35)), 10000);
}

TEST(Wakeup, Rejections) {
  const auto& node = tech::nodeByFeature(35);
  EXPECT_THROW(wakeupTransient(node, 0), std::invalid_argument);
  TransientConfig cfg;
  cfg.wakeTime = 0.0;
  EXPECT_THROW(wakeupTransient(node, 100, cfg), std::invalid_argument);
}

TEST(Wakeup, CurrentTransientsGrowDownRoadmap) {
  // Rising supply currents make the wake-up event harder each node.
  double prev = 0.0;
  for (int f : tech::roadmapFeatures()) {
    const auto& node = tech::nodeByFeature(f);
    const TransientReport rep = wakeupTransient(node, node.itrsVddPads);
    EXPECT_GT(rep.deltaCurrent, prev) << f;
    prev = rep.deltaCurrent;
  }
}

}  // namespace
}  // namespace nano::powergrid
