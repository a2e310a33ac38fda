#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"
#include "util/csv.h"
#include "util/rng.h"

namespace nano::scenario {

namespace {

void appendPhases(thermal::PowerTrace& into, const thermal::PowerTrace& from) {
  into.phases.insert(into.phases.end(), from.phases.begin(),
                     from.phases.end());
}

}  // namespace

const char* checkKindName(CheckKind kind) {
  switch (kind) {
    case CheckKind::Temperature: return "temperature";
    case CheckKind::IrDrop: return "ir_drop";
    case CheckKind::TimingSlack: return "timing_slack";
  }
  return "unknown";
}

ScenarioResult runScenario(const Plant& plant, Policy& policy,
                           const ScenarioConfig& config) {
  NANO_OBS_TIMER("scenario/run");
  if (!(config.dt > 0.0) || !std::isfinite(config.dt)) {
    throw std::invalid_argument("runScenario: dt must be positive");
  }
  if (config.traceStride < 1) {
    throw std::invalid_argument("runScenario: traceStride must be >= 1");
  }
  long steps = config.steps;
  if (steps <= 0) {
    steps = static_cast<long>(config.workload.totalDuration() / config.dt);
  }
  if (steps <= 0) {
    throw std::invalid_argument("runScenario: empty workload");
  }

  const tech::TechNode& node = plant.node();
  const double tAmbient =
      config.tAmbientK > 0.0 ? config.tAmbientK : node.tAmbient;
  const double maxTemperature = config.limits.maxTemperatureK > 0.0
                                    ? config.limits.maxTemperatureK
                                    : node.tjMax;
  const double clock = plant.clockPeriod();
  const thermal::ThermalPackage& package = plant.package();
  const double decay = package.decay(config.dt);

  policy.reset();

  ScenarioResult result;
  result.worstSlackS = clock;  // shrinks to the observed minimum

  double temperature = tAmbient;
  double baselineTemperature = tAmbient;
  double freq = 1.0;
  double vdd = 1.0;
  bool gated = false;
  // First observation: cold die at the nominal operating point.
  double slack = clock - clock * plant.delayScale(1.0, tAmbient);
  double irDrop = 0.0;
  double prevCurrent = 0.0;
  double tempSum = 0.0;
  double demandedWork = 0.0;
  double deliveredWork = 0.0;
  long integrated = 0;
  thermal::PowerTrace::Cursor workload(config.workload);

  for (long step = 0; step < steps; ++step) {
    const double t = static_cast<double>(step) * config.dt;
    const double demand = std::clamp(workload.at(t), 0.0, 1.0);

    PolicyObservation obs;
    obs.timeS = t;
    obs.demandFraction = demand;
    obs.temperatureK = temperature;
    obs.slackS = slack;
    obs.irDropFraction = irDrop;
    obs.clockPeriodS = clock;
    obs.vddFraction = vdd;
    obs.freqFraction = freq;
    obs.gated = gated;

    Actuation act = policy.decide(obs);
    act.freqFraction = std::clamp(act.freqFraction, 0.01, 1.2);
    act.vddFraction = std::clamp(act.vddFraction, 0.5, 1.05);
    const bool vddRose = act.vddFraction > vdd;
    if (act.vddFraction != vdd) ++result.vddSteps;
    const bool ungated = gated && !act.clockGate;
    if (act.clockGate != gated) ++result.gateEvents;
    freq = act.freqFraction;
    vdd = act.vddFraction;
    gated = act.clockGate;

    // Power at the actuated operating point.
    const double delivered = gated ? 0.0 : std::min(demand, freq);
    const double busy = freq > 0.0 ? delivered / freq : 0.0;
    const double vSq = vdd * vdd;
    const double pdyn =
        gated ? config.gatedDynamicFraction * plant.dynamicPowerNominal() * vSq
              : busy * plant.dynamicPowerNominal() * freq * vSq;
    const double pleak =
        plant.leakagePowerNominal() * plant.leakageScale(vdd, temperature);
    const double power = pdyn + pleak;
    const double current = plant.supplyCurrent(power, vdd);

    // Wake-up rush: a positive current step ramped through the bump
    // inductance on leaving a gated state or stepping Vdd up.
    double rush = 0.0;
    if (ungated || vddRose) {
      rush = plant.rushNoiseFraction(current - prevCurrent, config.wakeRampS,
                                     vdd);
    }
    irDrop = plant.irDropFraction(power, vdd) + rush;

    // Physics step and the timing consequence.
    temperature = package.stepWithDecay(temperature, power, tAmbient, decay);
    slack = clock / freq - clock * plant.delayScale(vdd, temperature);

    // The three per-step assertions.
    auto check = [&](CheckKind kind, bool bad, double value, double limit) {
      ++result.checksEvaluated;
      if (!bad) return;
      ++result.violationCount;
      if (static_cast<int>(result.violations.size()) <
          kMaxViolationsRecorded) {
        result.violations.push_back({kind, step, t, value, limit});
      }
    };
    check(CheckKind::Temperature, temperature > maxTemperature, temperature,
          maxTemperature);
    check(CheckKind::IrDrop, irDrop > config.limits.irBudgetFraction, irDrop,
          config.limits.irBudgetFraction);
    check(CheckKind::TimingSlack, slack < config.limits.minSlackS, slack,
          config.limits.minSlackS);

    // Accounting.
    ++integrated;
    tempSum += temperature;
    demandedWork += demand;
    deliveredWork += delivered;
    result.energyJ += power * config.dt;
    result.maxTemperatureK = std::max(result.maxTemperatureK, temperature);
    result.peakPowerW = std::max(result.peakPowerW, power);
    result.peakIrDropFraction = std::max(result.peakIrDropFraction, irDrop);
    result.peakRushFraction = std::max(result.peakRushFraction, rush);
    result.worstSlackS = std::min(result.worstSlackS, slack);
    prevCurrent = current;

    // Nominal baseline: the same demand at full frequency and voltage,
    // its own thermal trajectory (race-to-idle energy comparison).
    const double basePower =
        demand * plant.dynamicPowerNominal() +
        plant.leakagePowerNominal() *
            plant.leakageScale(1.0, baselineTemperature);
    baselineTemperature =
        package.stepWithDecay(baselineTemperature, basePower, tAmbient, decay);
    result.baselineEnergyJ += basePower * config.dt;

    if (step % config.traceStride == 0) {
      result.trace.push_back({t, demand, freq, vdd, gated, power, temperature,
                              slack, irDrop, rush, result.violationCount});
    }

    if (config.failFast && result.violationCount > 0) break;
  }

  // The sensor gauges hold the last integrated step's state.
  NANO_OBS_GAUGE("scenario/temperature_k", temperature);
  NANO_OBS_GAUGE("scenario/ir_drop_fraction", irDrop);
  NANO_OBS_GAUGE("scenario/slack_ps", slack * 1e12);

  result.steps = integrated;
  result.ok = result.violationCount == 0;
  result.avgTemperatureK = tempSum / static_cast<double>(integrated);
  result.throughputFraction =
      demandedWork > 0.0 ? deliveredWork / demandedWork : 1.0;

  NANO_OBS_COUNT("scenario/runs", 1);
  NANO_OBS_COUNT("scenario/steps", integrated);
  NANO_OBS_COUNT("scenario/checks", result.checksEvaluated);
  NANO_OBS_COUNT("scenario/violations", result.violationCount);
  NANO_OBS_COUNT("scenario/gate_events", result.gateEvents);
  NANO_OBS_COUNT("scenario/vdd_steps", result.vddSteps);
  return result;
}

std::string scenarioCsv(const ScenarioResult& result) {
  std::string out =
      "time_s,demand,freq_fraction,vdd_fraction,gated,power_w,"
      "temperature_k,slack_ps,ir_drop_fraction,rush_fraction,violations\n";
  for (const StepRecord& r : result.trace) {
    out += util::formatCsvDouble(r.timeS);
    out.push_back(',');
    out += util::formatCsvDouble(r.demand);
    out.push_back(',');
    out += util::formatCsvDouble(r.freqFraction);
    out.push_back(',');
    out += util::formatCsvDouble(r.vddFraction);
    out.push_back(',');
    out += r.gated ? '1' : '0';
    out.push_back(',');
    out += util::formatCsvDouble(r.powerW);
    out.push_back(',');
    out += util::formatCsvDouble(r.temperatureK);
    out.push_back(',');
    out += util::formatCsvDouble(r.slackS * 1e12);
    out.push_back(',');
    out += util::formatCsvDouble(r.irDropFraction);
    out.push_back(',');
    out += util::formatCsvDouble(r.rushFraction);
    out.push_back(',');
    out += std::to_string(r.violations);
    out.push_back('\n');
  }
  return out;
}

// ---------------------------------------------------- canonical scenarios

const char* defaultPolicyFor(const std::string& scenario) {
  if (scenario == "dtm") return "dtm";
  if (scenario == "dvfs") return "dvfs";
  if (scenario == "wakeup") return "dvfs";
  throw std::invalid_argument("unknown scenario \"" + scenario + "\"");
}

KnobRange knobRangeFor(const std::string& policy) {
  if (policy == "dtm") return {0.3, 0.9, 1.0, 8.0};
  if (policy == "dvfs") return {0.92, 1.06, 0.0, 0.3};
  if (policy == "explore") return {0.6, 0.9, 0.03, 0.2};
  throw std::invalid_argument("unknown policy \"" + policy + "\"");
}

ScenarioSetup makeScenario(const ScenarioSpec& spec) {
  NANO_OBS_COUNT("scenario/setups", 1);
  if (spec.steps < 1) {
    throw std::invalid_argument("scenario: steps must be >= 1");
  }
  if (!(spec.dtUs > 0.0) || !std::isfinite(spec.dtUs)) {
    throw std::invalid_argument("scenario: dt_us must be positive");
  }
  if (spec.traceStride < 1) {
    throw std::invalid_argument("scenario: trace_stride must be >= 1");
  }
  const std::string policyName =
      spec.policy.empty() ? defaultPolicyFor(spec.scenario) : spec.policy;
  const KnobRange range = knobRangeFor(policyName);  // validates the name
  (void)defaultPolicyFor(spec.scenario);             // validates the name
  auto resolveKnob = [](double knob, double fallback, double lo, double hi,
                        const char* which) {
    if (knob == 0.0) return fallback;
    if (!std::isfinite(knob) || knob < lo || knob > hi) {
      throw std::invalid_argument(
          std::string("scenario: ") + which + " knob out of range [" +
          util::formatCsvDouble(lo) + ", " + util::formatCsvDouble(hi) + "]");
    }
    return knob;
  };

  const tech::TechNode& node = tech::nodeByFeature(spec.nodeNm);
  const double dt = spec.dtUs * 1e-6;
  const double duration = static_cast<double>(spec.steps) * dt;

  ScenarioSetup setup;
  setup.config.dt = dt;
  setup.config.steps = spec.steps;
  setup.config.traceStride = spec.traceStride;

  PlantConfig plantConfig;
  plantConfig.nodeNm = spec.nodeNm;
  plantConfig.gates = spec.gates;
  plantConfig.seed = spec.seed;

  // Workload + packaging per canonical scenario.
  if (spec.scenario == "dtm") {
    // Packaged for the effective worst case (75 % of the virus): the DTM
    // throttle is what keeps the virus segment inside the junction limit.
    plantConfig.thetaJa =
        thermal::requiredThetaJa(0.75 * node.maxPower, node.tjMax,
                                 node.tAmbient);
    util::Rng rng(static_cast<std::uint64_t>(spec.seed));
    setup.config.workload =
        thermal::typicalApplication(rng, 0.35 * duration);
    appendPhases(setup.config.workload, thermal::powerVirus(0.30 * duration));
    appendPhases(setup.config.workload,
                 thermal::typicalApplication(rng, 0.35 * duration));
  } else if (spec.scenario == "dvfs") {
    // Deterministic demand staircase cycling light/heavy phases: the
    // energy-vs-slack workload.
    static constexpr double kStair[] = {0.20, 0.85, 0.45, 0.10,
                                        0.65, 0.30, 0.95, 0.15};
    const int cycles = 3;
    const int phases = cycles * 8;
    for (int i = 0; i < phases; ++i) {
      setup.config.workload.phases.push_back(
          {duration / phases, kStair[i % 8]});
    }
  } else {  // "wakeup" (names validated above)
    setup.config.workload =
        thermal::idleBurst(duration, duration / 6.0, 0.35, 0.05);
  }

  setup.plant = Plant::forConfig(plantConfig);

  if (policyName == "dtm") {
    // The node's default sensor (3 K hysteresis, 100 us actuation delay)
    // with the knobs' throttle factor and trip margin.
    thermal::DtmPolicy cfg = thermal::defaultPolicyFor(node);
    cfg.throttleFactor =
        resolveKnob(spec.knobA, 0.5, range.aLo, range.aHi, "throttle");
    const double margin =
        resolveKnob(spec.knobB, 4.0, range.bLo, range.bHi, "trip-margin");
    cfg.tripTemperature = node.tjMax - margin;
    setup.policy = std::make_unique<ReactiveDtmPolicy>(cfg);
  } else if (policyName == "dvfs") {
    TableDvfsPolicy::Config cfg;
    const double vddScale =
        resolveKnob(spec.knobA, 1.0, range.aLo, range.aHi, "vdd-scale");
    const double defaultGate = spec.scenario == "wakeup" ? 0.08 : 0.0;
    cfg.gateBelowDemand =
        resolveKnob(spec.knobB, defaultGate, range.bLo, range.bHi, "gate");
    for (thermal::DvfsLevel level : thermal::DvfsPolicy{}.levels) {
      level.vddFraction =
          std::clamp(level.vddFraction * vddScale, 0.55, 1.0);
      cfg.levels.push_back(level);
    }
    setup.policy = std::make_unique<TableDvfsPolicy>(cfg);
  } else {  // "explore"
    ExploreDvsPolicy::Config cfg;
    cfg.vddMin = resolveKnob(spec.knobA, 0.7, range.aLo, range.aHi,
                             "vdd-min");
    cfg.slackGuardFraction =
        resolveKnob(spec.knobB, 0.08, range.bLo, range.bHi, "slack-guard");
    cfg.temperatureLimitK = node.tjMax;
    cfg.irBudgetFraction = setup.config.limits.irBudgetFraction;
    setup.policy = std::make_unique<ExploreDvsPolicy>(cfg);
  }
  return setup;
}

ScenarioSpec canonicalSpec(const std::string& name) {
  (void)defaultPolicyFor(name);  // validates the name
  ScenarioSpec spec;
  spec.scenario = name;
  spec.steps = 4000;
  spec.dtUs = 50.0;
  spec.traceStride = 50;
  return spec;
}

}  // namespace nano::scenario
