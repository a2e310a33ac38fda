#include "signaling/mcml.h"

#include <stdexcept>

#include "device/gate_model.h"

namespace nano::signaling {

double McmlGate::staticPower(double vdd) const { return vdd * tailCurrent; }

double McmlGate::switchingEnergy() const {
  // Both outputs slew by `swing` in opposite directions; the charge comes
  // from the constant tail current, already accounted in staticPower. The
  // incremental supply energy of a transition is ~ C * swing * swing (the
  // redistribution loss), small by construction.
  return loadCap * swing * swing;
}

double McmlGate::totalPower(double vdd, double freq, double activity) const {
  return staticPower(vdd) + activity * switchingEnergy() * freq;
}

MatchedPair buildMatchedPair(const tech::TechNode& node, double loadCap) {
  if (loadCap <= 0) throw std::invalid_argument("buildMatchedPair: loadCap");
  const double vth = device::solveVthForIon(node, node.ionTarget);
  const device::InverterModel inv(node, vth, node.vdd);

  MatchedPair pair;
  pair.cmos.delayS = inv.delay(loadCap);
  pair.cmos.switchingEnergyJ = inv.switchingEnergy(loadCap);
  pair.cmos.leakagePowerW = inv.leakagePower();
  pair.cmos.peakSupplyCurrentA = inv.driveCurrentN();

  pair.mcml.loadCap = loadCap;
  pair.mcml.swing = 0.4 * node.vdd;  // typical MCML swing
  // Match delay: 0.69 * (swing/I) * C == cmos delay.
  pair.mcml.tailCurrent = 0.69 * pair.mcml.swing * loadCap / pair.cmos.delayS;
  return pair;
}

double mcmlCrossoverActivity(const tech::TechNode& node, double loadCap) {
  const MatchedPair pair = buildMatchedPair(node, loadCap);
  const double freq = node.clockLocal;
  // Solve activity a where MCML total == CMOS total:
  //   Pmcml_static + a*Emcml*f == a*Ecmos*f + Pcmos_leak
  const double lhs = pair.mcml.staticPower(node.vdd) - pair.cmos.leakagePowerW;
  const double rhs =
      (pair.cmos.switchingEnergyJ - pair.mcml.switchingEnergy()) * freq;
  if (rhs <= 0) return 2.0;  // CMOS switching never catches up
  return lhs / rhs;
}

}  // namespace nano::signaling
