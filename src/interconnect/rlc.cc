#include "interconnect/rlc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.h"

namespace nano::interconnect {

using namespace nano::units;

namespace {
constexpr double kMu0 = 4.0e-7 * 3.14159265358979323846;  // H/m
}

double distributedLineDelay(const WireRc& rc, double length, double rdrv,
                            double cload) {
  const double r = rc.resistancePerM * length;
  const double c = rc.totalCapPerM() * length;
  // Sakurai's 50% delay fit for driver + distributed line + load.
  return 0.377 * r * c + 0.693 * (rdrv * c + rdrv * cload + r * cload);
}

WireL computeWireL(const WireGeometry& g, double returnDistance) {
  if (returnDistance <= 0) {
    throw std::invalid_argument("computeWireL: returnDistance <= 0");
  }
  WireL l;
  // Partial self inductance per length of a rectangular conductor
  // (Ruehli): (mu0/2pi) * (ln(2l/(w+t)) + 1/2) — per unit length the
  // log term uses the geometric mean distance; we use the standard
  // per-length approximation with the return distance as the outer scale.
  const double gmd = 0.2235 * (g.width + g.thickness);  // conductor GMD
  l.selfInductancePerM = (kMu0 / (2.0 * 3.14159265358979323846)) *
                         (std::log(2.0 * returnDistance / gmd) + 0.5);
  // Loop inductance of the signal/return pair at spacing returnDistance:
  // (mu0/pi) * (ln(d/gmd) + 1/4) for two parallel rectangular conductors.
  l.loopInductancePerM =
      (kMu0 / 3.14159265358979323846) *
      (std::log(returnDistance / gmd) + 0.25);
  // Mutual to the adjacent signal wire (pitch away).
  const double pitch = g.width + g.spacing;
  l.mutualToNeighborPerM =
      (kMu0 / (2.0 * 3.14159265358979323846)) *
      std::log(returnDistance / std::max(pitch, gmd));
  l.mutualToNeighborPerM = std::max(l.mutualToNeighborPerM, 0.0);
  return l;
}

RlcReport analyzeRlcLine(const WireRc& rc, const WireL& l, double length,
                         double rdrv, double cload) {
  if (length <= 0) throw std::invalid_argument("analyzeRlcLine: length");
  RlcReport rep;
  const double cPerM = rc.totalCapPerM();
  const double lPerM = l.loopInductancePerM;
  rep.timeOfFlight = length * std::sqrt(lPerM * cPerM);
  rep.rcDelay = distributedLineDelay(rc, length, rdrv, cload);
  rep.characteristicImpedance = std::sqrt(lPerM / cPerM);
  rep.attenuation =
      rc.resistancePerM * length / (2.0 * rep.characteristicImpedance);
  // Inductance matters when the line is not heavily attenuated and the
  // driver is stiff relative to Z0 (Ismail-Friedman criterion, simplified).
  rep.inductanceMatters =
      rep.attenuation < 1.0 && rdrv < 2.0 * rep.characteristicImpedance;
  rep.delayEstimate = std::max(rep.timeOfFlight, rep.rcDelay);
  return rep;
}

RlcReport repeaterSegmentRlc(const tech::TechNode& node) {
  const WireGeometry g = topLevelWire(node);
  const WireRc rc = computeWireRc(g);
  // Return current flows in the power grid one bump pitch away at worst.
  const WireL l = computeWireL(g, node.minBumpPitch);
  const RepeaterDriver driver = RepeaterDriver::fromNode(node);
  const RepeaterDesign d = optimalRepeatersNumeric(driver, rc);
  return analyzeRlcLine(rc, l, d.segmentLength,
                        driver.unitResistance / d.size,
                        driver.unitInputCap * d.size);
}

}  // namespace nano::interconnect
