#include "scenario/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "obs/obs.h"
#include "scenario/plant.h"
#include "tech/itrs.h"
#include "thermal/workload.h"

namespace nano::scenario {
namespace {

ScenarioSpec smallSpec(const std::string& scenario) {
  ScenarioSpec spec;
  spec.scenario = scenario;
  spec.steps = 400;
  spec.traceStride = 50;
  return spec;
}

TEST(Plant, CachesByConfig) {
  Plant::clearCache();
  const PlantConfig config;
  const auto a = Plant::forConfig(config);
  const auto b = Plant::forConfig(config);
  EXPECT_EQ(a.get(), b.get());
  PlantConfig other = config;
  other.seed = 2;
  const auto c = Plant::forConfig(other);
  EXPECT_NE(a.get(), c.get());
}

TEST(Plant, PhysicalResponsesAreSane) {
  const auto plant = Plant::forConfig(PlantConfig{});
  const tech::TechNode& node = plant->node();
  EXPECT_GT(plant->clockPeriod(), 0.0);
  EXPECT_GT(plant->gateCount(), 0);
  EXPECT_GT(plant->endpointCount(), 0);
  EXPECT_GT(plant->fractionFasterThanHalf(), 0.0);

  // delayScale is normalized against the worst case over the operating
  // temperature range at nominal Vdd: never above 1 there.
  for (double t = node.tAmbient; t <= node.tjMax; t += 5.0) {
    EXPECT_LE(plant->delayScale(1.0, t), 1.0 + 1e-12) << t;
  }
  // Lower supply -> slower (the Vdd-delay feedback path).
  EXPECT_GT(plant->delayScale(0.8, node.tjMax),
            plant->delayScale(1.0, node.tjMax));
  EXPECT_GT(plant->delayScale(0.6, node.tjMax),
            plant->delayScale(0.8, node.tjMax));

  // Hotter -> leakier (the leakage-temperature feedback path), and the
  // normalization point is exactly 1.
  EXPECT_DOUBLE_EQ(plant->leakageScale(1.0, node.tjMax), 1.0);
  EXPECT_GT(plant->leakageScale(1.0, node.tjMax),
            plant->leakageScale(1.0, node.tAmbient));

  // IR drop scales linearly with power and inversely with Vdd squared.
  const double p = node.maxPower;
  EXPECT_NEAR(plant->irDropFraction(0.5 * p, 1.0),
              0.5 * plant->irDropFraction(p, 1.0), 1e-15);
  EXPECT_GT(plant->irDropFraction(p, 0.8), plant->irDropFraction(p, 1.0));
  EXPECT_DOUBLE_EQ(plant->irDropFraction(p, 1.0), plant->baseDropFraction());

  // Wake-up rush: proportional to dI/dt through the bump inductance.
  const double rush = plant->rushNoiseFraction(10.0, 5e-9, 1.0);
  EXPECT_GT(rush, 0.0);
  EXPECT_NEAR(plant->rushNoiseFraction(20.0, 5e-9, 1.0), 2.0 * rush,
              1e-12 * rush);
  EXPECT_DOUBLE_EQ(plant->rushNoiseFraction(0.0, 5e-9, 1.0), 0.0);

  // Rails are sized to hold the noise budget at full load, nominal V.
  EXPECT_LT(plant->baseDropFraction(), 0.05);
}

TEST(Scenario, RejectsBadRunConfig) {
  const auto plant = Plant::forConfig(PlantConfig{});
  TableDvfsPolicy policy({.levels = {{1.0, 1.0}}});
  ScenarioConfig config;
  config.workload = thermal::powerVirus(0.01);
  config.dt = 0.0;
  EXPECT_THROW(runScenario(*plant, policy, config), std::invalid_argument);
  config.dt = 50e-6;
  config.traceStride = 0;
  EXPECT_THROW(runScenario(*plant, policy, config), std::invalid_argument);
  config.traceStride = 100;
  config.workload.phases.clear();
  EXPECT_THROW(runScenario(*plant, policy, config), std::invalid_argument);
}

TEST(Scenario, EveryStepEvaluatesAllThreeChecks) {
  ScenarioSetup setup = makeScenario(smallSpec("dtm"));
  const ScenarioResult r =
      runScenario(*setup.plant, *setup.policy, setup.config);
  EXPECT_EQ(r.steps, 400);
  EXPECT_EQ(r.checksEvaluated, 3 * r.steps);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.violationCount, 0);
  EXPECT_GT(r.energyJ, 0.0);
  EXPECT_GT(r.maxTemperatureK, setup.plant->node().tAmbient);
  EXPECT_FALSE(r.trace.empty());
}

TEST(Scenario, RunsAreDeterministic) {
  ScenarioSetup a = makeScenario(smallSpec("dvfs"));
  ScenarioSetup b = makeScenario(smallSpec("dvfs"));
  const ScenarioResult ra = runScenario(*a.plant, *a.policy, a.config);
  const ScenarioResult rb = runScenario(*b.plant, *b.policy, b.config);
  EXPECT_EQ(scenarioCsv(ra), scenarioCsv(rb));
  EXPECT_DOUBLE_EQ(ra.energyJ, rb.energyJ);
}

TEST(Scenario, DvfsScenarioSavesEnergy) {
  ScenarioSetup setup = makeScenario(smallSpec("dvfs"));
  const ScenarioResult r =
      runScenario(*setup.plant, *setup.policy, setup.config);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.energySavings(), 0.05);
  EXPECT_GT(r.vddSteps, 0);
}

TEST(Scenario, WakeupScenarioGatesAndRushes) {
  ScenarioSetup setup = makeScenario(smallSpec("wakeup"));
  const ScenarioResult r =
      runScenario(*setup.plant, *setup.policy, setup.config);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.gateEvents, 0);
  EXPECT_GT(r.peakRushFraction, 0.0);
}

TEST(Scenario, FailFastStopsAtFirstViolation) {
  ScenarioSetup setup = makeScenario(smallSpec("dtm"));
  setup.config.limits.maxTemperatureK =
      setup.plant->node().tAmbient + 0.5;  // unreachable budget
  setup.config.failFast = true;
  const ScenarioResult r =
      runScenario(*setup.plant, *setup.policy, setup.config);
  EXPECT_FALSE(r.ok);
  EXPECT_GE(r.violationCount, 1);
  EXPECT_LT(r.steps, 400);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations.front().kind, CheckKind::Temperature);
}

TEST(Scenario, ViolationRecordingIsCapped) {
  ScenarioSetup setup = makeScenario(smallSpec("dtm"));
  setup.config.limits.maxTemperatureK = setup.plant->node().tAmbient + 0.5;
  const ScenarioResult r =
      runScenario(*setup.plant, *setup.policy, setup.config);
  EXPECT_FALSE(r.ok);
  EXPECT_GT(r.violationCount, kMaxViolationsRecorded);
  EXPECT_EQ(static_cast<int>(r.violations.size()), kMaxViolationsRecorded);
}

// The historical PowerTrace::at(): re-scan from phase 0 for every lookup.
// Kept as the slow reference the scenario loop's cursor must agree with.
double scanAt(const thermal::PowerTrace& trace, double t) {
  double acc = 0.0;
  for (const auto& p : trace.phases) {
    acc += p.duration;
    if (t < acc) return p.powerFraction;
  }
  return trace.phases.back().powerFraction;
}

TEST(Scenario, CursorMatchesPhaseScanAtEveryStepOfLongDtmRun) {
  ScenarioSpec spec = canonicalSpec("dtm");
  spec.steps = 20000;
  const ScenarioSetup setup = makeScenario(spec);
  const thermal::PowerTrace& trace = setup.config.workload;
  ASSERT_GT(trace.phases.size(), 300u);
  thermal::PowerTrace::Cursor cursor(trace);
  for (long step = 0; step < spec.steps; ++step) {
    const double t = static_cast<double>(step) * setup.config.dt;
    ASSERT_EQ(cursor.at(t), scanAt(trace, t)) << "step " << step;
  }
}

TEST(Scenario, SensorGaugesHoldTheLastStepsState) {
  const bool wasEnabled = obs::enabled();
  obs::setEnabled(true);
  ScenarioSetup setup = makeScenario(smallSpec("dtm"));
  setup.config.traceStride = 1;
  const ScenarioResult r =
      runScenario(*setup.plant, *setup.policy, setup.config);
  obs::setEnabled(wasEnabled);
  ASSERT_EQ(r.trace.size(), 400u);
  const StepRecord& last = r.trace.back();
  auto& registry = obs::MetricsRegistry::instance();
  EXPECT_EQ(registry.gauge("scenario/temperature_k").value(),
            last.temperatureK);
  EXPECT_EQ(registry.gauge("scenario/ir_drop_fraction").value(),
            last.irDropFraction);
  EXPECT_EQ(registry.gauge("scenario/slack_ps").value(), last.slackS * 1e12);
}

TEST(Scenario, CsvIsHeaderPlusDecimatedRows) {
  ScenarioSetup setup = makeScenario(smallSpec("dtm"));
  const ScenarioResult r =
      runScenario(*setup.plant, *setup.policy, setup.config);
  const std::string csv = scenarioCsv(r);
  EXPECT_EQ(csv.rfind("time_s,demand,freq_fraction,vdd_fraction,gated,"
                      "power_w,temperature_k,slack_ps,ir_drop_fraction,"
                      "rush_fraction,violations\n",
                      0),
            0u);
  const auto rows = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(rows, 1 + static_cast<long>(r.trace.size()));
}

TEST(MakeScenario, ValidatesSpec) {
  ScenarioSpec bad = smallSpec("dtm");
  bad.scenario = "unknown";
  EXPECT_THROW(makeScenario(bad), std::invalid_argument);
  bad = smallSpec("dtm");
  bad.steps = 0;
  EXPECT_THROW(makeScenario(bad), std::invalid_argument);
  bad = smallSpec("dtm");
  bad.dtUs = -1.0;
  EXPECT_THROW(makeScenario(bad), std::invalid_argument);
  bad = smallSpec("dtm");
  bad.knobA = 100.0;  // outside the dtm throttle-factor range
  EXPECT_THROW(makeScenario(bad), std::invalid_argument);
}

TEST(MakeScenario, KnobsParameterizeThePolicy) {
  ScenarioSpec spec = smallSpec("dtm");
  spec.knobA = 0.7;  // throttle factor
  ScenarioSetup setup = makeScenario(spec);
  const auto* dtm = dynamic_cast<const ReactiveDtmPolicy*>(setup.policy.get());
  ASSERT_NE(dtm, nullptr);
  EXPECT_DOUBLE_EQ(dtm->config().throttleFactor, 0.7);
  // The sensor the scenario goldens were recorded with: 3 K hysteresis,
  // a 100 us actuation path, clock-only throttling, trip 4 K under tjMax.
  const tech::TechNode& node = tech::nodeByFeature(spec.nodeNm);
  EXPECT_EQ(dtm->config().hysteresis, 3.0);
  EXPECT_EQ(dtm->config().sensorDelay, 100e-6);
  EXPECT_EQ(dtm->config().kind, thermal::ThrottleKind::ClockOnly);
  EXPECT_TRUE(dtm->config().enabled);
  EXPECT_EQ(dtm->config().tripTemperature, node.tjMax - 4.0);
}

TEST(MakeScenario, DefaultPoliciesAndRanges) {
  EXPECT_STREQ(defaultPolicyFor("dtm"), "dtm");
  EXPECT_STREQ(defaultPolicyFor("dvfs"), "dvfs");
  EXPECT_STREQ(defaultPolicyFor("wakeup"), "dvfs");
  EXPECT_THROW(defaultPolicyFor("nope"), std::invalid_argument);
  for (const char* policy : {"dtm", "dvfs", "explore"}) {
    const KnobRange r = knobRangeFor(policy);
    EXPECT_LT(r.aLo, r.aHi) << policy;
    EXPECT_LT(r.bLo, r.bHi) << policy;
  }
  EXPECT_THROW(knobRangeFor("nope"), std::invalid_argument);
}

TEST(MakeScenario, CanonicalSpecsResolve) {
  for (const char* name : {"dtm", "dvfs", "wakeup"}) {
    const ScenarioSpec spec = canonicalSpec(name);
    EXPECT_EQ(spec.scenario, name);
    EXPECT_EQ(spec.steps, 4000);
    EXPECT_EQ(spec.traceStride, 50);
  }
  EXPECT_THROW(canonicalSpec("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace nano::scenario
