#include "scenario/scenario.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

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

namespace {

/// One variant's loop state between steps. The cells are those of the
/// variant's current Vdd and temperature: a surface lookup searches an
/// axis only when its coordinate changed.
struct Variant {
  Policy* policy = nullptr;
  ScenarioResult result;
  double temperature = 0.0;
  double freq = 1.0;
  double vdd = 1.0;
  bool gated = false;
  double slack = 0.0;
  double irDrop = 0.0;
  double prevCurrent = 0.0;
  double tempSum = 0.0;
  double deliveredWork = 0.0;
  Plant::SurfaceCell vddCell;
  Plant::SurfaceCell tempCell;
};

/// What every variant of a run shares.
struct RunContext {
  const Plant& plant;
  const ScenarioConfig& config;
  double tAmbient;
  double maxTemperature;
  double clock;
  double decay;
};

void check(ScenarioResult& result, CheckKind kind, bool bad, double value,
           double limit, long step, double t) {
  ++result.checksEvaluated;
  if (!bad) return;
  ++result.violationCount;
  if (static_cast<int>(result.violations.size()) < kMaxViolationsRecorded) {
    result.violations.push_back({kind, step, t, value, limit});
  }
}

/// One integration step of one variant at demand `demand`.
void stepVariant(Variant& v, const RunContext& run, long step, double t,
                 double demand) {
  const Plant& plant = run.plant;
  const ScenarioConfig& config = run.config;
  ScenarioResult& result = v.result;

  PolicyObservation obs;
  obs.timeS = t;
  obs.demandFraction = demand;
  obs.temperatureK = v.temperature;
  obs.slackS = v.slack;
  obs.irDropFraction = v.irDrop;
  obs.clockPeriodS = run.clock;
  obs.vddFraction = v.vdd;
  obs.freqFraction = v.freq;
  obs.gated = v.gated;

  Actuation act = v.policy->decide(obs);
  act.freqFraction = std::clamp(act.freqFraction, 0.01, 1.2);
  act.vddFraction = std::clamp(act.vddFraction, 0.5, 1.05);
  const bool vddRose = act.vddFraction > v.vdd;
  if (act.vddFraction != v.vdd) {
    ++result.vddSteps;
    v.vddCell = plant.vddCell(act.vddFraction);
  }
  const bool ungated = v.gated && !act.clockGate;
  if (act.clockGate != v.gated) ++result.gateEvents;
  v.freq = act.freqFraction;
  v.vdd = act.vddFraction;
  v.gated = act.clockGate;

  // Power at the actuated operating point.
  const double delivered = v.gated ? 0.0 : std::min(demand, v.freq);
  const double busy = v.freq > 0.0 ? delivered / v.freq : 0.0;
  const double vSq = v.vdd * v.vdd;
  const double pdyn =
      v.gated
          ? config.gatedDynamicFraction * plant.dynamicPowerNominal() * vSq
          : busy * plant.dynamicPowerNominal() * v.freq * vSq;
  const double pleak = plant.leakagePowerNominal() *
                       plant.leakageScaleAt(v.vddCell, v.tempCell);
  const double power = pdyn + pleak;
  const double current = plant.supplyCurrent(power, v.vdd);

  // Wake-up rush: a positive current step ramped through the bump
  // inductance on leaving a gated state or stepping Vdd up.
  double rush = 0.0;
  if (ungated || vddRose) {
    rush = plant.rushNoiseFraction(current - v.prevCurrent, config.wakeRampS,
                                   v.vdd);
  }
  v.irDrop = plant.irDropFraction(power, v.vdd) + rush;

  // Physics step and the timing consequence. The new temperature's cell
  // serves this step's delay lookup and the next step's leakage lookup.
  v.temperature = plant.package().stepWithDecay(v.temperature, power,
                                                run.tAmbient, run.decay);
  v.tempCell = plant.temperatureCell(v.temperature);
  v.slack = run.clock / v.freq -
            run.clock * plant.delayScaleAt(v.vddCell, v.tempCell);

  // The three per-step assertions.
  check(result, CheckKind::Temperature, v.temperature > run.maxTemperature,
        v.temperature, run.maxTemperature, step, t);
  check(result, CheckKind::IrDrop, v.irDrop > config.limits.irBudgetFraction,
        v.irDrop, config.limits.irBudgetFraction, step, t);
  check(result, CheckKind::TimingSlack, v.slack < config.limits.minSlackS,
        v.slack, config.limits.minSlackS, step, t);

  // Accounting.
  v.tempSum += v.temperature;
  v.deliveredWork += delivered;
  result.energyJ += power * config.dt;
  result.maxTemperatureK = std::max(result.maxTemperatureK, v.temperature);
  result.peakPowerW = std::max(result.peakPowerW, power);
  result.peakIrDropFraction = std::max(result.peakIrDropFraction, v.irDrop);
  result.peakRushFraction = std::max(result.peakRushFraction, rush);
  result.worstSlackS = std::min(result.worstSlackS, v.slack);
  v.prevCurrent = current;

  if (step % config.traceStride == 0) {
    result.trace.push_back({t, demand, v.freq, v.vdd, v.gated, power,
                            v.temperature, v.slack, v.irDrop, rush,
                            result.violationCount});
  }
}

/// Close a variant after `integrated` steps, with the shared sums of the
/// demand and the baseline energy through its last step.
void finish(Variant& v, long integrated, double baselineEnergyJ,
            double demandedWork) {
  ScenarioResult& result = v.result;
  result.steps = integrated;
  result.ok = result.violationCount == 0;
  result.baselineEnergyJ = baselineEnergyJ;
  result.avgTemperatureK = v.tempSum / static_cast<double>(integrated);
  result.throughputFraction =
      demandedWork > 0.0 ? v.deliveredWork / demandedWork : 1.0;
}

}  // namespace

std::vector<ScenarioResult> runScenarios(const Plant& plant,
                                         std::span<Policy* const> policies,
                                         const ScenarioConfig& config) {
  NANO_OBS_TIMER("scenario/run");
  if (!(config.dt > 0.0) || !std::isfinite(config.dt)) {
    throw std::invalid_argument("runScenarios: dt must be positive");
  }
  if (config.traceStride < 1) {
    throw std::invalid_argument("runScenarios: traceStride must be >= 1");
  }
  long steps = config.steps;
  if (steps <= 0) {
    steps = static_cast<long>(config.workload.totalDuration() / config.dt);
  }
  if (steps <= 0) {
    throw std::invalid_argument("runScenarios: empty workload");
  }
  std::vector<Policy*> distinct(policies.begin(), policies.end());
  std::sort(distinct.begin(), distinct.end(), std::less<>());
  if (!distinct.empty() && distinct.front() == nullptr) {
    throw std::invalid_argument("runScenarios: null policy");
  }
  if (std::adjacent_find(distinct.begin(), distinct.end()) != distinct.end()) {
    throw std::invalid_argument("runScenarios: repeated policy");
  }

  const tech::TechNode& node = plant.node();
  const RunContext run{
      plant,
      config,
      config.tAmbientK > 0.0 ? config.tAmbientK : node.tAmbient,
      config.limits.maxTemperatureK > 0.0 ? config.limits.maxTemperatureK
                                          : node.tjMax,
      plant.clockPeriod(),
      plant.package().decay(config.dt)};

  // First observation: cold die at the nominal operating point.
  const Plant::SurfaceCell nominalVdd = plant.vddCell(1.0);
  const Plant::SurfaceCell ambient = plant.temperatureCell(run.tAmbient);
  const double firstSlack =
      run.clock - run.clock * plant.delayScaleAt(nominalVdd, ambient);
  std::vector<Variant> variants(policies.size());
  std::vector<Variant*> running;
  running.reserve(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    Variant& v = variants[i];
    v.policy = policies[i];
    v.policy->reset();
    v.result.worstSlackS = run.clock;  // shrinks to the observed minimum
    v.temperature = run.tAmbient;
    v.slack = firstSlack;
    v.vddCell = nominalVdd;
    v.tempCell = ambient;
    running.push_back(&v);
  }

  double baselineTemperature = run.tAmbient;
  double baselineEnergyJ = 0.0;
  double demandedWork = 0.0;
  thermal::PowerTrace::Cursor workload(config.workload);

  for (long step = 0; step < steps && !running.empty(); ++step) {
    const double t = static_cast<double>(step) * config.dt;
    const double demand = std::clamp(workload.at(t), 0.0, 1.0);
    demandedWork += demand;
    for (Variant* v : running) stepVariant(*v, run, step, t, demand);

    // Nominal baseline: the same demand at full frequency and voltage,
    // its own thermal trajectory (race-to-idle energy comparison).
    const double basePower =
        demand * plant.dynamicPowerNominal() +
        plant.leakagePowerNominal() *
            plant.leakageScaleAt(nominalVdd,
                                 plant.temperatureCell(baselineTemperature));
    baselineTemperature = plant.package().stepWithDecay(
        baselineTemperature, basePower, run.tAmbient, run.decay);
    baselineEnergyJ += basePower * config.dt;

    if (config.failFast) {
      std::erase_if(running, [&](Variant* v) {
        if (v->result.violationCount == 0) return false;
        finish(*v, step + 1, baselineEnergyJ, demandedWork);
        return true;
      });
    }
  }
  for (Variant* v : running) finish(*v, steps, baselineEnergyJ, demandedWork);

  if (!variants.empty()) {
    // The sensor gauges hold the last variant's last integrated step.
    const Variant& last = variants.back();
    NANO_OBS_GAUGE("scenario/temperature_k", last.temperature);
    NANO_OBS_GAUGE("scenario/ir_drop_fraction", last.irDrop);
    NANO_OBS_GAUGE("scenario/slack_ps", last.slack * 1e12);
  }
  std::vector<ScenarioResult> results;
  results.reserve(variants.size());
  for (Variant& v : variants) {
    NANO_OBS_COUNT("scenario/runs", 1);
    NANO_OBS_COUNT("scenario/steps", v.result.steps);
    NANO_OBS_COUNT("scenario/checks", v.result.checksEvaluated);
    NANO_OBS_COUNT("scenario/violations", v.result.violationCount);
    NANO_OBS_COUNT("scenario/gate_events", v.result.gateEvents);
    NANO_OBS_COUNT("scenario/vdd_steps", v.result.vddSteps);
    results.push_back(std::move(v.result));
  }
  return results;
}

ScenarioResult runScenario(const Plant& plant, Policy& policy,
                           const ScenarioConfig& config) {
  Policy* const one[] = {&policy};
  return std::move(runScenarios(plant, one, config).front());
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
