// Equivalence pins for the shared controllers: the DTM trip sensor
// (DtmSensor) and the DVFS level pick (pickDvfsLevel) each replaced two
// inline copies, one in the thermal simulators and one in the scenario
// policies. The pre-refactor code is kept here verbatim as the reference,
// and the shared versions must agree with it step for step on seeded
// inputs, edge cases included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "thermal/dtm.h"
#include "thermal/dvfs.h"
#include "util/rng.h"

namespace nano::thermal {
namespace {

/// The sensor state machine exactly as simulateDtm ran it inline.
struct ReferenceDtm {
  DtmPolicy policy;
  bool throttled = false;
  double pendingChangeAt = -1.0;  // sensor delay modeling
  bool pendingState = false;

  bool step(double t, double temperature) {
    // Sensor comparison (with hysteresis); actuation after sensorDelay.
    const bool sensorWantsThrottle =
        throttled ? (temperature > policy.tripTemperature - policy.hysteresis)
                  : (temperature > policy.tripTemperature);
    if (policy.enabled && sensorWantsThrottle != throttled) {
      if (pendingChangeAt < 0 || pendingState != sensorWantsThrottle) {
        pendingChangeAt = t + policy.sensorDelay;
        pendingState = sensorWantsThrottle;
      }
      if (t >= pendingChangeAt) {
        throttled = pendingState;
        pendingChangeAt = -1.0;
      }
    } else {
      pendingChangeAt = -1.0;
    }
    return throttled;
  }
};

/// Mean-reverting walk across the hysteresis band. One step in five lands
/// exactly on the trip point or exactly on trip - hysteresis, where the
/// strict comparisons decide.
std::vector<double> temperatureWalk(util::Rng& rng, const DtmPolicy& p,
                                    int steps) {
  const double center = p.tripTemperature - 0.5 * p.hysteresis;
  const double noise = 0.4 + 0.25 * p.hysteresis;
  std::vector<double> walk;
  double temperature = center;
  for (int i = 0; i < steps; ++i) {
    const double r = rng.uniform();
    if (r < 0.1) {
      temperature = p.tripTemperature;
    } else if (r < 0.2) {
      temperature = p.tripTemperature - p.hysteresis;
    } else {
      temperature += 0.2 * (center - temperature) + rng.normal(0.0, noise);
    }
    walk.push_back(temperature);
  }
  return walk;
}

TEST(DtmSensorEquivalence, MatchesInlineStateMachineOnSeededWalks) {
  const double dt = 20e-6;
  int toggles = 0;
  for (const std::uint64_t seed : {1u, 7u, 42u, 2024u}) {
    for (const double hysteresis : {0.0, 3.0, 12.0}) {
      for (const int delaySteps : {0, 1, 10}) {
        for (const bool enabled : {true, false}) {
          DtmPolicy policy;
          policy.tripTemperature = 356.0;
          policy.hysteresis = hysteresis;
          policy.sensorDelay = delaySteps * dt;
          policy.enabled = enabled;
          util::Rng rng(seed);
          const std::vector<double> walk =
              temperatureWalk(rng, policy, 4000);

          ReferenceDtm reference{policy};
          DtmSensor sensor(policy);
          // simulateDtm accumulates t += dt; runScenario uses step * dt.
          // Alternate the two so both time bases reach the delay compare.
          const bool accumulate = (seed % 2) == 1;
          double t = 0.0;
          bool previous = false;
          for (int i = 0; i < static_cast<int>(walk.size()); ++i) {
            if (!accumulate) t = static_cast<double>(i) * dt;
            const bool want = reference.step(t, walk[i]);
            ASSERT_EQ(sensor.update(t, walk[i]), want)
                << "seed=" << seed << " hysteresis=" << hysteresis
                << " delaySteps=" << delaySteps << " enabled=" << enabled
                << " step=" << i;
            if (want != previous) ++toggles;
            previous = want;
            if (accumulate) t += dt;
          }
          if (!enabled) {
            EXPECT_FALSE(previous);
          }
        }
      }
    }
  }
  // The walks must actually exercise the latch, not sit on one side.
  EXPECT_GT(toggles, 1000);
}

TEST(DtmSensorEquivalence, ResetReplaysLikeAFreshSensor) {
  DtmPolicy policy;
  policy.tripTemperature = 356.0;
  policy.hysteresis = 3.0;
  policy.sensorDelay = 60e-6;
  util::Rng rng(99);
  const std::vector<double> walk = temperatureWalk(rng, policy, 500);
  DtmSensor used(policy);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    (void)used.update(static_cast<double>(i) * 20e-6, walk[i]);
  }
  used.reset();
  DtmSensor fresh(policy);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    const double t = static_cast<double>(i) * 20e-6;
    ASSERT_EQ(used.update(t, walk[i]), fresh.update(t, walk[i])) << i;
  }
}

/// The governor loop exactly as simulateDvfs and TableDvfsPolicy each
/// carried it: the pointer identity is the pick.
const DvfsLevel* referencePick(const std::vector<DvfsLevel>& levels,
                               double d) {
  const DvfsLevel* fastest = &levels.front();
  const DvfsLevel* best = nullptr;
  for (const auto& level : levels) {
    if (level.freqFraction > fastest->freqFraction) fastest = &level;
    if (level.freqFraction + 1e-12 >= d &&
        (best == nullptr || level.powerFactor() < best->powerFactor())) {
      best = &level;
    }
  }
  return best != nullptr ? best : fastest;
}

/// Unsorted random table on a coarse grid, so equal frequencies and equal
/// power factors (ties) are common; some entries copy an earlier
/// frequency or a whole earlier level.
std::vector<DvfsLevel> randomTable(util::Rng& rng) {
  std::vector<DvfsLevel> levels;
  const int n = rng.uniformInt(1, 8);
  for (int i = 0; i < n; ++i) {
    DvfsLevel level{0.1 * rng.uniformInt(1, 12), 0.1 * rng.uniformInt(5, 12)};
    if (!levels.empty() && rng.bernoulli(0.25)) {
      level.freqFraction = levels[rng.uniformInt(0, i - 1)].freqFraction;
    }
    if (!levels.empty() && rng.bernoulli(0.1)) {
      level = levels[rng.uniformInt(0, i - 1)];
    }
    levels.push_back(level);
  }
  return levels;
}

TEST(DvfsPickEquivalence, MatchesInlineGovernorOnRandomTables) {
  util::Rng rng(31337);
  std::vector<std::vector<DvfsLevel>> tables;
  tables.push_back(DvfsPolicy{}.levels);
  tables.push_back(DvfsPolicy{}.levels);
  std::reverse(tables.back().begin(), tables.back().end());
  for (int i = 0; i < 500; ++i) tables.push_back(randomTable(rng));

  int aboveAll = 0;
  for (const std::vector<DvfsLevel>& levels : tables) {
    double fastest = 0.0;
    for (const DvfsLevel& l : levels) {
      fastest = std::max(fastest, l.freqFraction);
    }
    std::vector<double> demands = {0.0, 1.0, fastest + 0.1, rng.uniform()};
    for (const DvfsLevel& l : levels) {
      // Exactly on a level, and on either side of the 1e-12 admission
      // tolerance.
      for (const double d : {l.freqFraction, l.freqFraction + 0.5e-12,
                             l.freqFraction + 2e-12, l.freqFraction - 1e-9}) {
        demands.push_back(d);
      }
    }
    for (const double d : demands) {
      if (d > fastest + 1e-12) ++aboveAll;
      ASSERT_EQ(&pickDvfsLevel(levels, d), referencePick(levels, d))
          << "levels=" << levels.size() << " demand=" << d;
    }
  }
  EXPECT_GT(aboveAll, 500);
}

}  // namespace
}  // namespace nano::thermal
