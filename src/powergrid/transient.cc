#include "powergrid/transient.h"

#include <cmath>
#include <stdexcept>

namespace nano::powergrid {

TransientReport wakeupTransient(const tech::TechNode& node, int vddBumps,
                                const TransientConfig& cfg) {
  if (vddBumps < 1) throw std::invalid_argument("wakeupTransient: bumps < 1");
  if (cfg.wakeTime <= 0) throw std::invalid_argument("wakeupTransient: time");
  TransientReport rep;
  rep.vddBumps = vddBumps;
  const double fullCurrent = node.supplyCurrent();
  rep.deltaCurrent = (1.0 - cfg.idleFraction) * fullCurrent;
  rep.dIdt = rep.deltaCurrent / cfg.wakeTime;
  rep.effectiveInductance =
      cfg.planeInductance + cfg.bumpInductance / static_cast<double>(vddBumps);
  rep.noiseVoltage = rep.effectiveInductance * rep.dIdt;
  rep.noiseFraction = rep.noiseVoltage / node.vdd;
  const double budgetV = cfg.noiseBudgetFraction * node.vdd;
  rep.decapNeeded = rep.deltaCurrent * cfg.wakeTime / (2.0 * budgetV);
  rep.withinBudget = rep.noiseVoltage <= budgetV;
  return rep;
}

int minPitchVddBumps(const tech::TechNode& node) {
  const double cells =
      node.dieArea / (node.minBumpPitch * node.minBumpPitch);
  return static_cast<int>(std::round(cells / 4.0));
}

}  // namespace nano::powergrid
