#include "core/analysis.h"

#include "device/gate_model.h"
#include "exec/exec.h"
#include "util/units.h"

namespace nano::core {

using namespace nano::units;

NodeSummary summarizeNode(int featureNm) {
  NodeSummary s;
  const auto& node = tech::nodeByFeature(featureNm);
  s.node = &node;

  s.vthRequired = device::solveVthForIon(node, node.ionTarget);
  const device::Mosfet dev =
      device::Mosfet::fromNode(node, s.vthRequired, node.vdd);
  s.ionUaUm = dev.ion() / uA_per_um;
  s.ioffNaUm = dev.ioff() / nA_per_um;
  const device::Mosfet hot = device::Mosfet::fromNode(
      node, s.vthRequired, node.vdd, device::GateStack::Poly,
      fromCelsius(85.0));
  s.ioffHotNaUm = hot.ioff() / nA_per_um;

  const device::InverterModel inv(node, s.vthRequired, node.vdd);
  s.fo4DelayPs = inv.fo4Delay() / ps;
  s.fo4PerCycle = 1.0 / (inv.fo4Delay() * node.clockLocal);

  s.maxPowerW = node.maxPower;
  s.supplyCurrentA = node.supplyCurrent();
  s.standbyCurrentBudgetA = 0.1 * node.maxPower / node.vdd;

  s.thetaJaRequired = node.requiredThetaJa();
  s.packaging =
      &thermal::cheapestSolutionFor(node.maxPower, node.tjMax, node.tAmbient);
  s.coolingCostUsd = s.packaging->cost(node.maxPower);

  s.wiring = interconnect::analyzeGlobalWiring(node);

  s.gridMinPitch = powergrid::minPitchReport(node);
  s.gridItrs = powergrid::itrsPitchReport(node);
  s.wakeup = powergrid::wakeupTransient(node, node.itrsVddPads);
  return s;
}

std::vector<NodeSummary> summarizeRoadmap() {
  const auto features = tech::roadmapFeatures();
  return exec::parallelMap<NodeSummary>(
      features.size(),
      [&](std::size_t i) { return summarizeNode(features[i]); });
}

}  // namespace nano::core
