#include "scenario/policy.h"

#include <algorithm>
#include <stdexcept>

namespace nano::scenario {

Actuation ReactiveDtmPolicy::decide(const PolicyObservation& obs) {
  Actuation act;
  if (sensor_.update(obs.timeS, obs.temperatureK)) {
    const thermal::DtmPolicy& p = sensor_.policy();
    act.freqFraction = p.throttleFactor;
    act.vddFraction = p.kind == thermal::ThrottleKind::ClockAndVdd
                          ? p.throttleFactor
                          : 1.0;
  }
  return act;
}

TableDvfsPolicy::TableDvfsPolicy(const Config& config) : config_(config) {
  if (config_.levels.empty()) {
    throw std::invalid_argument("TableDvfsPolicy: empty level table");
  }
}

Actuation TableDvfsPolicy::decide(const PolicyObservation& obs) {
  const double d = std::clamp(obs.demandFraction, 0.0, 1.0);
  // The pick reads d only through comparisons, so an equal d (+0 and -0
  // included) picks the same level; a NaN never compares equal.
  if (hasLast_ && d == lastDemand_) return last_;
  const thermal::DvfsLevel& pick = thermal::pickDvfsLevel(config_.levels, d);
  Actuation act;
  act.freqFraction = pick.freqFraction;
  act.vddFraction = pick.vddFraction;
  act.clockGate =
      config_.gateBelowDemand > 0.0 && d < config_.gateBelowDemand;
  hasLast_ = true;
  lastDemand_ = d;
  last_ = act;
  return act;
}

void ExploreDvsPolicy::reset() {
  vdd_ = 1.0;
  stableSteps_ = 0;
}

Actuation ExploreDvsPolicy::decide(const PolicyObservation& obs) {
  const double slackGuard = config_.slackGuardFraction * obs.clockPeriodS;
  const bool tempTight =
      config_.temperatureLimitK > 0.0 &&
      obs.temperatureK > config_.temperatureLimitK - config_.tempGuardK;
  const bool irTight =
      obs.irDropFraction > config_.irGuardFraction * config_.irBudgetFraction;
  const bool slackTight = obs.slackS < slackGuard;

  if (slackTight || tempTight || irTight) {
    // A margin is closing: retreat one step immediately and restart the
    // settling count. The guard bands keep the retreat ahead of the
    // engine's hard assertions.
    vdd_ = std::min(1.0, vdd_ + config_.vddStep);
    stableSteps_ = 0;
  } else if (++stableSteps_ >= config_.holdSteps) {
    vdd_ = std::max(config_.vddMin, vdd_ - config_.vddStep);
    stableSteps_ = 0;
  }

  Actuation act;
  act.vddFraction = vdd_;
  // Linear V-f tracking: the delay surface grows faster than 1/V near
  // threshold, so slack still shrinks as Vdd falls and the slack guard
  // eventually binds — that bind point is the exploration's answer.
  act.freqFraction = vdd_;
  return act;
}

}  // namespace nano::scenario
