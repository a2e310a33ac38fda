// The lockstep engine against its oracle: runScenarios() over a block of
// policy variants must give every variant exactly the bits of the
// one-variant reference loop (tests/support/scenario_oracle.h), and the
// plant's two-stage surface lookups exactly the bits of the one-stage
// tables.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "scenario/plant.h"
#include "scenario/policy.h"
#include "scenario/scenario.h"
#include "support/scenario_oracle.h"
#include "tech/itrs.h"
#include "util/rng.h"

namespace nano::scenario {
namespace {

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

#define EXPECT_SAME_BITS(a, b) \
  EXPECT_TRUE(sameBits((a), (b))) << #a << " = " << (a) << " vs " << (b)

void expectSameResult(const ScenarioResult& got, const ScenarioResult& want) {
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.checksEvaluated, want.checksEvaluated);
  EXPECT_EQ(got.violationCount, want.violationCount);
  EXPECT_SAME_BITS(got.energyJ, want.energyJ);
  EXPECT_SAME_BITS(got.baselineEnergyJ, want.baselineEnergyJ);
  EXPECT_SAME_BITS(got.throughputFraction, want.throughputFraction);
  EXPECT_SAME_BITS(got.maxTemperatureK, want.maxTemperatureK);
  EXPECT_SAME_BITS(got.avgTemperatureK, want.avgTemperatureK);
  EXPECT_SAME_BITS(got.peakPowerW, want.peakPowerW);
  EXPECT_SAME_BITS(got.peakIrDropFraction, want.peakIrDropFraction);
  EXPECT_SAME_BITS(got.peakRushFraction, want.peakRushFraction);
  EXPECT_SAME_BITS(got.worstSlackS, want.worstSlackS);
  EXPECT_EQ(got.gateEvents, want.gateEvents);
  EXPECT_EQ(got.vddSteps, want.vddSteps);
  ASSERT_EQ(got.violations.size(), want.violations.size());
  for (std::size_t i = 0; i < got.violations.size(); ++i) {
    const Violation& g = got.violations[i];
    const Violation& w = want.violations[i];
    EXPECT_EQ(g.kind, w.kind) << "violation " << i;
    EXPECT_EQ(g.step, w.step) << "violation " << i;
    EXPECT_SAME_BITS(g.timeS, w.timeS);
    EXPECT_SAME_BITS(g.value, w.value);
    EXPECT_SAME_BITS(g.limit, w.limit);
  }
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (std::size_t i = 0; i < got.trace.size(); ++i) {
    const StepRecord& g = got.trace[i];
    const StepRecord& w = want.trace[i];
    SCOPED_TRACE("trace record " + std::to_string(i));
    EXPECT_SAME_BITS(g.timeS, w.timeS);
    EXPECT_SAME_BITS(g.demand, w.demand);
    EXPECT_SAME_BITS(g.freqFraction, w.freqFraction);
    EXPECT_SAME_BITS(g.vddFraction, w.vddFraction);
    EXPECT_EQ(g.gated, w.gated);
    EXPECT_SAME_BITS(g.powerW, w.powerW);
    EXPECT_SAME_BITS(g.temperatureK, w.temperatureK);
    EXPECT_SAME_BITS(g.slackS, w.slackS);
    EXPECT_SAME_BITS(g.irDropFraction, w.irDropFraction);
    EXPECT_SAME_BITS(g.rushFraction, w.rushFraction);
    EXPECT_EQ(g.violations, w.violations);
  }
}

/// A block of policy variants over one spec: an axisA x axisB knob grid
/// sampled inside the policy's ranges, as a scenario sweep samples it.
struct Block {
  std::shared_ptr<const Plant> plant;
  ScenarioConfig config;
  std::vector<std::unique_ptr<Policy>> policies;
  std::vector<Policy*> pointers;
};

Block makeBlock(const ScenarioSpec& base, int axisA, int axisB) {
  const std::string policy =
      base.policy.empty() ? defaultPolicyFor(base.scenario) : base.policy;
  const KnobRange range = knobRangeFor(policy);
  Block block;
  for (int ia = 0; ia < axisA; ++ia) {
    for (int ib = 0; ib < axisB; ++ib) {
      ScenarioSpec spec = base;
      spec.policy = policy;
      spec.knobA = range.aLo + (range.aHi - range.aLo) * (ia + 0.5) / axisA;
      spec.knobB = range.bLo + (range.bHi - range.bLo) * (ib + 0.5) / axisB;
      ScenarioSetup setup = makeScenario(spec);
      block.plant = setup.plant;
      block.config = setup.config;
      block.pointers.push_back(setup.policy.get());
      block.policies.push_back(std::move(setup.policy));
    }
  }
  return block;
}

/// Runs the block in lockstep and every variant alone through the oracle
/// (on the same policy objects, which both runs reset), and compares.
std::vector<ScenarioResult> expectBlockMatchesOracle(Block& block) {
  const std::vector<ScenarioResult> lockstep =
      runScenarios(*block.plant, block.pointers, block.config);
  EXPECT_EQ(lockstep.size(), block.pointers.size());
  for (std::size_t i = 0; i < lockstep.size(); ++i) {
    SCOPED_TRACE("variant " + std::to_string(i));
    const ScenarioResult want = oracle::runScenarioReference(
        *block.plant, *block.pointers[i], block.config);
    expectSameResult(lockstep[i], want);
  }
  return lockstep;
}

TEST(Lockstep, EveryScenarioAndPolicyMatchesTheOracle) {
  for (const char* scenario : {"dtm", "dvfs", "wakeup"}) {
    for (const char* policy : {"dtm", "dvfs", "explore"}) {
      SCOPED_TRACE(std::string(scenario) + " / " + policy);
      ScenarioSpec spec;
      spec.scenario = scenario;
      spec.policy = policy;
      spec.steps = 1200;
      spec.traceStride = 37;
      Block block = makeBlock(spec, 3, 3);
      expectBlockMatchesOracle(block);
    }
  }
}

TEST(Lockstep, SeededSpecsMatchTheOracle) {
  // Scenario, policy, knob grid, run length (0 derives it from the
  // workload), dt, trace stride, fail-fast and the temperature limit all
  // drawn from one seed.
  const char* scenarios[] = {"dtm", "dvfs", "wakeup"};
  const char* policies[] = {"", "dtm", "dvfs", "explore"};
  util::Rng rng(26);
  for (int round = 0; round < 24; ++round) {
    ScenarioSpec spec;
    spec.scenario = scenarios[rng.uniformInt(0, 2)];
    spec.policy = policies[rng.uniformInt(0, 3)];
    spec.steps = rng.uniformInt(50, 1500);
    spec.dtUs = rng.uniform(20.0, 80.0);
    spec.traceStride = rng.uniformInt(0, 2) == 0 ? 1 : 100;
    Block block = makeBlock(spec, rng.uniformInt(1, 4), rng.uniformInt(1, 4));
    if (rng.uniformInt(0, 2) == 0) block.config.steps = 0;
    if (rng.uniformInt(0, 1) == 0) block.config.dt *= rng.uniform(0.5, 2.0);
    block.config.failFast = rng.uniformInt(0, 1) == 1;
    if (rng.uniformInt(0, 1) == 0) {
      block.config.limits.maxTemperatureK =
          block.plant->node().tAmbient + rng.uniform(0.5, 30.0);
    }
    SCOPED_TRACE("round " + std::to_string(round) + ": " + spec.scenario +
                 " / " + spec.policy);
    expectBlockMatchesOracle(block);
  }
}

TEST(Lockstep, StrideOneAndHundredAndDerivedLengthMatchTheOracle) {
  for (const int stride : {1, 100}) {
    for (const double dt : {20e-6, 50e-6, 73e-6}) {
      ScenarioSpec spec;
      spec.scenario = "dvfs";
      spec.steps = 900;
      spec.traceStride = stride;
      Block block = makeBlock(spec, 2, 2);
      block.config.steps = 0;  // the workload's duration over dt
      block.config.dt = dt;
      const std::vector<ScenarioResult> results =
          expectBlockMatchesOracle(block);
      EXPECT_EQ(results.front().steps,
                static_cast<long>(block.config.workload.totalDuration() / dt));
    }
  }
}

TEST(Lockstep, FailFastStopsEachVariantAtItsOwnStep) {
  // The vdd-scale knob sets each variant's power, so each crosses a
  // temperature limit at its own step; the others keep integrating.
  ScenarioSpec spec;
  spec.scenario = "dvfs";
  spec.steps = 4000;
  Block block = makeBlock(spec, 4, 1);
  block.config.failFast = true;
  block.config.limits.maxTemperatureK = block.plant->node().tAmbient + 8.0;
  const std::vector<ScenarioResult> results = expectBlockMatchesOracle(block);
  std::set<long> stops;
  for (const ScenarioResult& r : results) {
    EXPECT_FALSE(r.ok);
    EXPECT_LT(r.steps, 4000);
    stops.insert(r.steps);
  }
  EXPECT_GE(stops.size(), 3u);
}

TEST(Lockstep, ConcurrentBlocksOverOneSharedPlantMatchOneCall) {
  // As a scenario sweep runs them: one block of variants per exec lane,
  // every block reading the same cached plant and config at once.
  ScenarioSpec spec;
  spec.scenario = "dvfs";
  spec.policy = "explore";
  spec.steps = 600;
  Block block = makeBlock(spec, 4, 4);
  const std::vector<ScenarioResult> whole =
      runScenarios(*block.plant, block.pointers, block.config);
  const std::span<Policy* const> all(block.pointers);
  constexpr std::size_t kBlocks = 4;
  std::vector<std::vector<ScenarioResult>> parts(kBlocks);
  exec::parallelFor(
      kBlocks,
      [&](std::size_t b) {
        const auto plant = Plant::forConfig(block.plant->config());
        parts[b] = runScenarios(*plant, all.subspan(4 * b, 4), block.config);
      },
      1);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::size_t i = 0; i < 4; ++i) {
      expectSameResult(parts[b][i], whole[4 * b + i]);
    }
  }
}

TEST(Lockstep, RepeatedOrNullPolicyThrows) {
  ScenarioSpec spec;
  spec.steps = 100;
  Block block = makeBlock(spec, 2, 1);
  std::vector<Policy*> repeated = {block.pointers[0], block.pointers[1],
                                   block.pointers[0]};
  EXPECT_THROW(runScenarios(*block.plant, repeated, block.config),
               std::invalid_argument);
  std::vector<Policy*> withNull = {block.pointers[0], nullptr};
  EXPECT_THROW(runScenarios(*block.plant, withNull, block.config),
               std::invalid_argument);
  EXPECT_TRUE(runScenarios(*block.plant, {}, block.config).empty());
}

TEST(Lockstep, ReusedDvfsPolicyGivesTheSameResultsAfterReset) {
  ScenarioSpec spec;
  spec.scenario = "wakeup";
  spec.steps = 1500;
  spec.traceStride = 1;
  ScenarioSetup reused = makeScenario(spec);
  const ScenarioResult first =
      runScenario(*reused.plant, *reused.policy, reused.config);
  // A second run on the same object starts from reset(), not from the
  // decision the first run ended on.
  expectSameResult(runScenario(*reused.plant, *reused.policy, reused.config),
                   first);
  ScenarioSetup fresh = makeScenario(spec);
  expectSameResult(
      oracle::runScenarioReference(*fresh.plant, *fresh.policy, fresh.config),
      first);
}

TEST(TableDvfsPolicyMemo, EqualDemandsReturnTheFreshDecision) {
  TableDvfsPolicy::Config config;
  for (thermal::DvfsLevel level : thermal::DvfsPolicy{}.levels) {
    config.levels.push_back(level);
  }
  config.gateBelowDemand = 0.1;
  TableDvfsPolicy memo(config);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Repeats, signed zeros, NaN, clamping, and nearly equal neighbours on
  // both sides of each level's frequency and of the gate threshold,
  // where a memo keyed on anything looser than equality answers stale.
  std::vector<double> demands = {0.5, 0.5, 0.05, 0.05, 0.0, -0.0, 0.0,
                                 nan, nan, 0.95, 2.0, 1.0, 0.3, -1.0};
  for (const thermal::DvfsLevel& level : config.levels) {
    demands.push_back(level.freqFraction);
    demands.push_back(level.freqFraction + 1e-9);
    demands.push_back(level.freqFraction);
  }
  demands.push_back(std::nextafter(config.gateBelowDemand, 0.0));
  demands.push_back(config.gateBelowDemand);
  demands.push_back(std::nextafter(config.gateBelowDemand, 0.0));
  auto expectSame = [](const Actuation& a, const Actuation& b) {
    EXPECT_SAME_BITS(a.freqFraction, b.freqFraction);
    EXPECT_SAME_BITS(a.vddFraction, b.vddFraction);
    EXPECT_EQ(a.clockGate, b.clockGate);
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (const double d : demands) {
      PolicyObservation obs;
      obs.demandFraction = d;
      TableDvfsPolicy fresh(config);
      SCOPED_TRACE("demand " + std::to_string(d));
      expectSame(memo.decide(obs), fresh.decide(obs));
    }
    memo.reset();
  }
}

// ------------------------------------------------- two-stage lookups

TEST(PlantCells, TwoStageLookupEqualsTheOneStageTable) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const int nodeNm : {180, 70, 35}) {
    PlantConfig config;
    config.nodeNm = nodeNm;
    const auto plant = Plant::forConfig(config);
    const oracle::ReferenceSurfaces ref =
        oracle::referenceSurfaces(plant->node());
    // On every grid point, between each pair, beyond both ends, and NaN.
    auto probes = [&](const std::vector<double>& axis) {
      std::vector<double> xs;
      for (std::size_t i = 0; i < axis.size(); ++i) {
        xs.push_back(axis[i]);
        if (i + 1 < axis.size()) {
          xs.push_back(axis[i] + 0.37 * (axis[i + 1] - axis[i]));
        }
      }
      const double span = axis.back() - axis.front();
      xs.push_back(axis.front() - 0.25 * span);
      xs.push_back(axis.back() + 0.25 * span);
      xs.push_back(nan);
      return xs;
    };
    for (const double v : probes(ref.vdd)) {
      for (const double t : probes(ref.temp)) {
        SCOPED_TRACE("node " + std::to_string(nodeNm) + " v " +
                     std::to_string(v) + " t " + std::to_string(t));
        const Plant::SurfaceCell cv = plant->vddCell(v);
        const Plant::SurfaceCell ct = plant->temperatureCell(t);
        const double delay = plant->delayScaleAt(cv, ct);
        const double leak = plant->leakageScaleAt(cv, ct);
        if (std::isnan(v) || std::isnan(t)) {
          EXPECT_TRUE(std::isnan(delay));
          EXPECT_TRUE(std::isnan(ref.delayAt(v, t)));
          EXPECT_TRUE(std::isnan(leak));
          EXPECT_TRUE(std::isnan(ref.leakAt(v, t)));
          continue;
        }
        EXPECT_SAME_BITS(delay, ref.delayAt(v, t));
        EXPECT_SAME_BITS(leak, ref.leakAt(v, t));
        EXPECT_SAME_BITS(plant->delayScale(v, t), delay);
        EXPECT_SAME_BITS(plant->leakageScale(v, t), leak);
      }
    }
  }
}

}  // namespace
}  // namespace nano::scenario
