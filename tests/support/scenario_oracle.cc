#include "support/scenario_oracle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "device/gate_model.h"
#include "device/mosfet.h"
#include "util/numeric.h"

namespace nano::scenario::oracle {

ScenarioResult runScenarioReference(const Plant& plant, Policy& policy,
                                    const ScenarioConfig& config) {
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

  result.steps = integrated;
  result.ok = result.violationCount == 0;
  result.avgTemperatureK = tempSum / static_cast<double>(integrated);
  result.throughputFraction =
      demandedWork > 0.0 ? deliveredWork / demandedWork : 1.0;
  return result;
}

namespace {

// The plant's sampling grid (src/scenario/plant.cc).
constexpr int kVddSamples = 13;
constexpr int kTempSamples = 9;
constexpr double kVddFracLo = 0.50;
constexpr double kVddFracHi = 1.05;

double bilinear(const ReferenceSurfaces& s, const std::vector<double>& value,
                double v, double t) {
  auto cell = [](const std::vector<double>& axis, double x) {
    const auto it = std::upper_bound(axis.begin(), axis.end(), x);
    std::size_t hi = static_cast<std::size_t>(it - axis.begin());
    hi = std::clamp<std::size_t>(hi, 1, axis.size() - 1);
    const double lo = axis[hi - 1];
    const double span = axis[hi] - lo;
    const double frac = std::clamp((x - lo) / span, 0.0, 1.0);
    return std::pair<std::size_t, double>(hi - 1, frac);
  };
  const auto [iv, fv] = cell(s.vdd, v);
  const auto [it, ft] = cell(s.temp, t);
  const std::size_t nt = s.temp.size();
  const double v00 = value[iv * nt + it];
  const double v01 = value[iv * nt + it + 1];
  const double v10 = value[(iv + 1) * nt + it];
  const double v11 = value[(iv + 1) * nt + it + 1];
  const double lo = v00 + (v01 - v00) * ft;
  const double hi = v10 + (v11 - v10) * ft;
  return lo + (hi - lo) * fv;
}

}  // namespace

double ReferenceSurfaces::delayAt(double v, double t) const {
  return bilinear(*this, delay, v, t);
}

double ReferenceSurfaces::leakAt(double v, double t) const {
  return bilinear(*this, leak, v, t);
}

ReferenceSurfaces referenceSurfaces(const tech::TechNode& node) {
  ReferenceSurfaces s;
  const double tRef = node.tjMax;
  const double vthNominal = device::solveVthForIon(node, node.ionTarget);
  const double wireCap = node.localWireCapPerM * node.avgLocalWireLength;
  s.vdd = util::linspace(kVddFracLo, kVddFracHi, kVddSamples);
  s.temp = util::linspace(node.tAmbient - 15.0, node.tjMax + 40.0,
                          kTempSamples);
  for (double vFrac : s.vdd) {
    const double v = vFrac * node.vdd;
    const double vth = vthNominal + node.dibl * (node.vdd - v);
    for (double t : s.temp) {
      const device::InverterModel inv(node, vth, v, {}, t);
      s.delay.push_back(inv.fo4Delay(wireCap));
      s.leak.push_back(inv.leakagePower());
    }
  }
  double delayRef = 0.0;
  for (double t : s.temp) {
    if (t < node.tAmbient - 1e-9 || t > node.tjMax + 1e-9) continue;
    delayRef = std::max(delayRef, s.delayAt(1.0, t));
  }
  delayRef = std::max(
      {delayRef, s.delayAt(1.0, node.tAmbient), s.delayAt(1.0, node.tjMax)});
  const double leakRef = s.leakAt(1.0, tRef);
  for (double& d : s.delay) d /= delayRef;
  for (double& l : s.leak) l /= leakRef;
  return s;
}

}  // namespace nano::scenario::oracle
