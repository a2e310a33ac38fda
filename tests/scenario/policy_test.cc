#include "scenario/policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "util/rng.h"

namespace nano::scenario {
namespace {

PolicyObservation obsAt(double timeS, double temperatureK,
                        double demand = 0.5) {
  PolicyObservation o;
  o.timeS = timeS;
  o.temperatureK = temperatureK;
  o.demandFraction = demand;
  o.clockPeriodS = 250e-12;
  o.slackS = 25e-12;
  return o;
}

TEST(ReactiveDtmPolicy, TripsAboveAndReleasesBelowHysteresis) {
  thermal::DtmPolicy cfg;
  cfg.tripTemperature = 350.0;
  cfg.hysteresis = 3.0;
  cfg.throttleFactor = 0.5;
  cfg.sensorDelay = 0.0;  // instant actuation for the state-machine test
  ReactiveDtmPolicy policy(cfg);

  EXPECT_DOUBLE_EQ(policy.decide(obsAt(0.0, 340.0)).freqFraction, 1.0);
  EXPECT_DOUBLE_EQ(policy.decide(obsAt(1e-4, 350.5)).freqFraction, 0.5);
  // Inside the hysteresis band: stays throttled.
  EXPECT_DOUBLE_EQ(policy.decide(obsAt(2e-4, 348.0)).freqFraction, 0.5);
  // Below trip - hysteresis: releases.
  EXPECT_DOUBLE_EQ(policy.decide(obsAt(3e-4, 346.5)).freqFraction, 1.0);
}

TEST(ReactiveDtmPolicy, SensorDelayDefersActuation) {
  thermal::DtmPolicy cfg;
  cfg.tripTemperature = 350.0;
  cfg.sensorDelay = 100e-6;
  ReactiveDtmPolicy policy(cfg);

  // Trip observed at t=0 but the actuation path is 100 us long.
  EXPECT_DOUBLE_EQ(policy.decide(obsAt(0.0, 351.0)).freqFraction, 1.0);
  EXPECT_DOUBLE_EQ(policy.decide(obsAt(50e-6, 351.0)).freqFraction, 1.0);
  EXPECT_DOUBLE_EQ(policy.decide(obsAt(120e-6, 351.0)).freqFraction, 0.5);
}

TEST(ReactiveDtmPolicy, ScaleVddTracksThrottle) {
  thermal::DtmPolicy cfg;
  cfg.tripTemperature = 350.0;
  cfg.sensorDelay = 0.0;
  cfg.kind = thermal::ThrottleKind::ClockAndVdd;
  ReactiveDtmPolicy policy(cfg);
  const Actuation a = policy.decide(obsAt(0.0, 351.0));
  EXPECT_DOUBLE_EQ(a.freqFraction, 0.5);
  EXPECT_DOUBLE_EQ(a.vddFraction, 0.5);

  policy.reset();
  const Actuation fresh = policy.decide(obsAt(0.0, 340.0));
  EXPECT_DOUBLE_EQ(fresh.freqFraction, 1.0);
  EXPECT_DOUBLE_EQ(fresh.vddFraction, 1.0);
}

/// ReactiveDtmPolicy as it stood before it shared thermal::DtmSensor: its
/// own Config and a copy of the sensor state machine, kept verbatim as
/// the reference.
class ReferenceReactiveDtm {
 public:
  struct Config {
    double tripTemperatureK = 0.0;  ///< asserts above this
    double hysteresisK = 3.0;       ///< deasserts below trip - hysteresis
    double throttleFactor = 0.5;
    double sensorDelayS = 100e-6;
    bool scaleVdd = false;
  };
  explicit ReferenceReactiveDtm(const Config& config) : config_(config) {}

  Actuation decide(const PolicyObservation& obs) {
    // Same sensor state machine as thermal::simulateDtm: the comparator
    // output (with hysteresis) schedules an actuation change sensorDelay
    // in the future; the change applies once its time arrives.
    const bool wants =
        throttled_
            ? (obs.temperatureK >
               config_.tripTemperatureK - config_.hysteresisK)
            : (obs.temperatureK > config_.tripTemperatureK);
    if (wants != throttled_) {
      if (pendingChangeAt_ < 0 || pendingState_ != wants) {
        pendingChangeAt_ = obs.timeS + config_.sensorDelayS;
        pendingState_ = wants;
      }
      if (obs.timeS >= pendingChangeAt_) {
        throttled_ = pendingState_;
        pendingChangeAt_ = -1.0;
      }
    } else {
      pendingChangeAt_ = -1.0;
    }

    Actuation act;
    if (throttled_) {
      act.freqFraction = config_.throttleFactor;
      act.vddFraction = config_.scaleVdd ? config_.throttleFactor : 1.0;
    }
    return act;
  }

 private:
  Config config_;
  bool throttled_ = false;
  double pendingChangeAt_ = -1.0;
  bool pendingState_ = false;
};

TEST(ReactiveDtmPolicy, MatchesThePreSharedPolicyOnSeededWalks) {
  const double dt = 50e-6;  // the canonical scenario step
  for (const std::uint64_t seed : {3u, 11u}) {
    for (const double hysteresis : {0.0, 3.0, 9.0}) {
      for (const int delaySteps : {0, 1, 10}) {
        for (const bool scaleVdd : {false, true}) {
          ReferenceReactiveDtm::Config old;
          old.tripTemperatureK = 354.0;
          old.hysteresisK = hysteresis;
          old.throttleFactor = 0.6;
          old.sensorDelayS = delaySteps * dt;
          old.scaleVdd = scaleVdd;
          thermal::DtmPolicy cfg;
          cfg.tripTemperature = old.tripTemperatureK;
          cfg.hysteresis = old.hysteresisK;
          cfg.throttleFactor = old.throttleFactor;
          cfg.sensorDelay = old.sensorDelayS;
          cfg.kind = scaleVdd ? thermal::ThrottleKind::ClockAndVdd
                              : thermal::ThrottleKind::ClockOnly;
          ReferenceReactiveDtm reference(old);
          ReactiveDtmPolicy policy(cfg);

          util::Rng rng(seed);
          double temperature = 354.0;
          for (long step = 0; step < 3000; ++step) {
            const double r = rng.uniform();
            if (r < 0.1) {
              temperature = 354.0;
            } else if (r < 0.2) {
              temperature = 354.0 - hysteresis;
            } else {
              temperature += 0.2 * (354.0 - 0.5 * hysteresis - temperature) +
                             rng.normal(0.0, 0.4 + 0.25 * hysteresis);
            }
            const PolicyObservation o =
                obsAt(static_cast<double>(step) * dt, temperature);
            const Actuation want = reference.decide(o);
            const Actuation got = policy.decide(o);
            ASSERT_EQ(got.freqFraction, want.freqFraction) << step;
            ASSERT_EQ(got.vddFraction, want.vddFraction) << step;
            ASSERT_EQ(got.clockGate, want.clockGate) << step;
          }
        }
      }
    }
  }
}

TEST(TableDvfsPolicy, RejectsEmptyTable) {
  EXPECT_THROW(TableDvfsPolicy(TableDvfsPolicy::Config{}),
               std::invalid_argument);
}

TEST(TableDvfsPolicy, PicksLowestPowerAdmissibleLevel) {
  TableDvfsPolicy::Config cfg;
  cfg.levels = {{0.4, 0.7}, {1.0, 1.0}, {0.6, 0.8}, {0.8, 0.9}};
  TableDvfsPolicy policy(cfg);
  const Actuation a = policy.decide(obsAt(0.0, 320.0, 0.55));
  EXPECT_DOUBLE_EQ(a.freqFraction, 0.6);
  EXPECT_DOUBLE_EQ(a.vddFraction, 0.8);
}

TEST(TableDvfsPolicy, DemandAboveAllLevelsUsesFastest) {
  TableDvfsPolicy::Config cfg;
  cfg.levels = {{0.25, 0.6}, {0.5, 0.7}};
  TableDvfsPolicy policy(cfg);
  const Actuation a = policy.decide(obsAt(0.0, 320.0, 0.9));
  EXPECT_DOUBLE_EQ(a.freqFraction, 0.5);
}

TEST(TableDvfsPolicy, GatesBelowThreshold) {
  TableDvfsPolicy::Config cfg;
  cfg.levels = {{1.0, 1.0}, {0.5, 0.7}};
  cfg.gateBelowDemand = 0.1;
  TableDvfsPolicy policy(cfg);
  EXPECT_TRUE(policy.decide(obsAt(0.0, 320.0, 0.05)).clockGate);
  EXPECT_FALSE(policy.decide(obsAt(0.0, 320.0, 0.5)).clockGate);
}

TEST(ExploreDvsPolicy, StepsDownOnlyAfterHoldAndRetreatsImmediately) {
  ExploreDvsPolicy::Config cfg;
  cfg.vddMin = 0.7;
  cfg.vddStep = 0.05;
  cfg.holdSteps = 4;
  cfg.temperatureLimitK = 360.0;
  ExploreDvsPolicy policy(cfg);

  // Comfortable margins: hold for holdSteps - 1 calls, step down on the
  // call that completes the hold window.
  PolicyObservation comfy = obsAt(0.0, 320.0);
  comfy.slackS = 100e-12;  // way above 8 % of 250 ps
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(policy.decide(comfy).vddFraction, 1.0) << i;
  }
  const Actuation down = policy.decide(comfy);
  EXPECT_DOUBLE_EQ(down.vddFraction, 0.95);
  EXPECT_DOUBLE_EQ(down.freqFraction, down.vddFraction);

  // Tight slack: immediate retreat upward.
  PolicyObservation tight = comfy;
  tight.slackS = 1e-12;
  EXPECT_DOUBLE_EQ(policy.decide(tight).vddFraction, 1.0);
}

TEST(ExploreDvsPolicy, NeverExploresBelowFloor) {
  ExploreDvsPolicy::Config cfg;
  cfg.vddMin = 0.9;
  cfg.vddStep = 0.05;
  cfg.holdSteps = 1;
  cfg.temperatureLimitK = 360.0;
  ExploreDvsPolicy policy(cfg);
  PolicyObservation comfy = obsAt(0.0, 320.0);
  comfy.slackS = 100e-12;
  double lowest = 1.0;
  for (int i = 0; i < 50; ++i) {
    lowest = std::min(lowest, policy.decide(comfy).vddFraction);
  }
  EXPECT_GE(lowest, 0.9 - 1e-12);
}

}  // namespace
}  // namespace nano::scenario
