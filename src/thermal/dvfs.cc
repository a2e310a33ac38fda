#include "thermal/dvfs.h"

#include <algorithm>
#include <stdexcept>

#include "thermal/validate.h"

namespace nano::thermal {

const DvfsLevel& pickDvfsLevel(std::span<const DvfsLevel> levels,
                               double demand) {
  const DvfsLevel* fastest = &levels.front();
  const DvfsLevel* best = nullptr;
  for (const DvfsLevel& level : levels) {
    if (level.freqFraction > fastest->freqFraction) fastest = &level;
    if (level.freqFraction + 1e-12 >= demand &&
        (best == nullptr || level.powerFactor() < best->powerFactor())) {
      best = &level;
    }
  }
  return best != nullptr ? *best : *fastest;
}

DvfsResult simulateDvfs(const ThermalPackage& package, const PowerTrace& demand,
                        double worstCasePower, double tAmbient,
                        const DvfsPolicy& policy) {
  const ThermalInputCheck check =
      validateDvfsInputs(package, demand, worstCasePower, tAmbient, policy);
  if (!check.ok()) {
    throw std::invalid_argument("simulateDvfs: " + check.describe());
  }

  DvfsResult res;
  double temperature = tAmbient;
  double demandedWork = 0.0;
  double deliveredWork = 0.0;

  for (const auto& phase : demand.phases) {
    const double d = std::clamp(phase.powerFraction, 0.0, 1.0);
    const DvfsLevel& level = pickDvfsLevel(policy.levels, d);

    // Work: the core can deliver at most level.freqFraction of peak.
    const double delivered = std::min(d, level.freqFraction);
    demandedWork += d * phase.duration;
    deliveredWork += delivered * phase.duration;

    // Busy fraction at this level, the rest idles at the level's voltage.
    const double busy =
        level.freqFraction > 0 ? delivered / level.freqFraction : 0.0;
    const double active = busy * worstCasePower * level.powerFactor();
    const double idle = (1.0 - busy) * policy.idleFraction * worstCasePower *
                        level.vddFraction * level.vddFraction;
    const double power = active + idle;
    res.energy += power * phase.duration;

    // Race-to-idle baseline: sprint at full speed, then idle at full V.
    const double fullSpeed =
        d * worstCasePower +
        (1.0 - d) * policy.idleFraction * worstCasePower;
    res.energyFullSpeed += fullSpeed * phase.duration;

    temperature = package.step(temperature, power, tAmbient, phase.duration);
    res.maxTemperature = std::max(res.maxTemperature, temperature);
  }

  res.avgPower = res.energy / demand.totalDuration();
  res.throughputDelivered =
      demandedWork > 0 ? deliveredWork / demandedWork : 1.0;
  return res;
}

}  // namespace nano::thermal
