#include "powergrid/irdrop.h"

#include <cmath>
#include <stdexcept>

namespace nano::powergrid {

double railMaxDrop(double railWidth, double railPitch, double bumpPitch,
                   double sheetResistance, double powerDensity,
                   double hotspotFactor, double supplyVoltage) {
  if (railWidth <= 0) throw std::invalid_argument("railMaxDrop: width <= 0");
  // Current collected per metre of rail from its tributary strip.
  const double lambda =
      hotspotFactor * powerDensity * railPitch / supplyVoltage;
  // Uniformly loaded span between two ideal sources: worst drop at the
  // midpoint, lambda * r * p^2 / 8 with r the rail resistance per metre.
  const double rPerM = sheetResistance / railWidth;
  return lambda * rPerM * bumpPitch * bumpPitch / 8.0;
}

IrDropReport requiredLinewidth(const tech::TechNode& node, double padPitch,
                               const IrDropOptions& options) {
  if (padPitch <= 0) throw std::invalid_argument("requiredLinewidth: pitch");
  IrDropReport rep;
  rep.padPitch = padPitch;
  rep.railPitch = 2.0 * padPitch;  // Vdd interleaved with GND

  const double sheet = node.metalResistivity / node.globalWireThickness();
  const double budget = options.budgetFraction * node.vdd;
  // Drop ~ 1/W: solve directly.
  const double dropAtUnitWidth =
      railMaxDrop(1.0, rep.railPitch, rep.railPitch, sheet,
                  node.powerDensity(), kHotspotFactor, node.vdd);
  rep.requiredWidth = dropAtUnitWidth / budget;
  rep.widthOverMin = rep.requiredWidth / node.minGlobalWireWidth();

  // Each railPitch period of each polarity carries one rail; per pad pitch
  // of routing there is one rail (Vdd or GND) of requiredWidth.
  rep.routingFraction = rep.requiredWidth / padPitch;

  rep.bumpCurrent = kHotspotFactor * node.powerDensity() *
                    rep.railPitch * rep.railPitch / node.vdd;
  rep.bumpCurrentOk = rep.bumpCurrent <= node.bumpCurrentLimit;
  rep.vddBumpCount = static_cast<int>(
      std::round(node.dieArea / (rep.railPitch * rep.railPitch)));

  if (options.runMesh) {
    const GridSolution sol =
        solveGrid(gridConfigForNode(node, rep.widthOverMin, padPitch));
    rep.meshDropFraction = sol.maxDropFraction;
  }
  return rep;
}

IrDropReport minPitchReport(const tech::TechNode& node,
                            const IrDropOptions& options) {
  return requiredLinewidth(node, node.minBumpPitch, options);
}

IrDropReport itrsPitchReport(const tech::TechNode& node,
                             const IrDropOptions& options) {
  return requiredLinewidth(node, node.itrsEffectiveBumpPitch(), options);
}

}  // namespace nano::powergrid
