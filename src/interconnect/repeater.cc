#include "interconnect/repeater.h"

#include <cmath>
#include <stdexcept>

#include "obs/obs.h"
#include "util/numeric.h"
#include "util/units.h"

namespace nano::interconnect {

using namespace nano::units;

RepeaterDriver RepeaterDriver::fromNode(const tech::TechNode& node) {
  const double vth = device::solveVthForIon(node, node.ionTarget);
  // Unit repeater: a minimum balanced inverter (Wn/L=2, Wp/L=4).
  const device::GateGeometry unitGeom{2.0, 4.0};
  const device::InverterModel inv(node, vth, node.vdd, unitGeom);
  RepeaterDriver d;
  // Effective switching resistance: average of N and P Req with the same
  // 3/4*Vdd/I model the gate delay uses.
  const double reqN = 0.75 * node.vdd / inv.driveCurrentN();
  const double reqP = 0.75 * node.vdd / inv.driveCurrentP();
  d.unitResistance = 0.5 * (reqN + reqP);
  d.unitInputCap = inv.inputCap();
  d.unitOutputCap = inv.outputCap();
  d.unitLeakage = inv.leakagePower();
  // Layout: device widths plus diffusion/poly overhead, ~ (Wn+Wp) * 5L.
  const double drawnL = node.featureNm * nm;
  d.unitArea = (inv.wn() + inv.wp()) * 5.0 * drawnL;
  d.vdd = node.vdd;
  return d;
}

double repeaterSegmentDelay(const RepeaterDriver& driver, const WireRc& rc,
                            double size, double segmentLength) {
  if (size <= 0 || segmentLength <= 0) {
    throw std::invalid_argument("repeaterSegmentDelay: non-positive design");
  }
  const double rdrv = driver.unitResistance / size;
  const double cload = driver.unitInputCap * size;   // next repeater
  const double cself = driver.unitOutputCap * size;  // own diffusion
  const double r = rc.resistancePerM * segmentLength;
  const double c = rc.totalCapPerM() * segmentLength;
  return 0.693 * rdrv * cself + 0.377 * r * c +
         0.693 * (rdrv * c + rdrv * cload + r * cload);
}

RepeaterDesign optimalRepeatersClosedForm(const RepeaterDriver& driver,
                                          const WireRc& rc) {
  RepeaterDesign d;
  const double r = rc.resistancePerM;
  const double c = rc.totalCapPerM();
  d.size = std::sqrt(driver.unitResistance * c / (r * driver.unitInputCap));
  d.segmentLength = std::sqrt(
      2.0 * driver.unitResistance * (driver.unitInputCap + driver.unitOutputCap) /
      (r * c));
  d.delayPerMeter =
      repeaterSegmentDelay(driver, rc, d.size, d.segmentLength) / d.segmentLength;
  return d;
}

RepeaterDesign optimalRepeatersNumeric(const RepeaterDriver& driver,
                                       const WireRc& rc) {
  const RepeaterDesign seed = optimalRepeatersClosedForm(driver, rc);
  // Nested golden search around the closed-form seed (within 8x each way).
  auto bestLengthFor = [&](double size) {
    auto f = [&](double len) {
      return repeaterSegmentDelay(driver, rc, size, len) / len;
    };
    return util::tryMinimizeGolden(f, seed.segmentLength / 8.0,
                                   seed.segmentLength * 8.0,
                                   seed.segmentLength * 1e-6);
  };
  auto delayForSize = [&](double size) { return bestLengthFor(size).fx; };
  const auto sizeOpt =
      util::tryMinimizeGolden(delayForSize, seed.size / 8.0, seed.size * 8.0,
                              seed.size * 1e-6);
  const auto lenOpt = bestLengthFor(sizeOpt.x);
  if (!sizeOpt.diagnostics().ok() || !lenOpt.diagnostics().ok()) {
    // Recovery: the closed-form seed is a sound design; prefer it over a
    // half-shrunk or poisoned golden-section iterate.
    NANO_OBS_COUNT("interconnect/repeater_opt_fallback", 1);
    return seed;
  }
  RepeaterDesign d;
  d.size = sizeOpt.x;
  d.segmentLength = lenOpt.x;
  d.delayPerMeter =
      repeaterSegmentDelay(driver, rc, d.size, d.segmentLength) / d.segmentLength;
  return d;
}

double repeatedLineDelay(const RepeaterDriver& driver, const WireRc& rc,
                         const RepeaterDesign& design, double length) {
  const double nSegments = std::max(1.0, std::round(length / design.segmentLength));
  const double segLen = length / nSegments;
  return nSegments * repeaterSegmentDelay(driver, rc, design.size, segLen);
}

LinePower repeatedLinePower(const RepeaterDriver& driver, const WireRc& rc,
                            const RepeaterDesign& design, double length,
                            double freq, double activity) {
  LinePower p;
  const double nRep = repeaterCountForLength(design, length);
  const double cWire = rc.totalCapPerM() * length;
  const double cRep = nRep * design.size *
                      (driver.unitInputCap + driver.unitOutputCap);
  const double vdd2 = driver.vdd * driver.vdd;
  p.wire = activity * cWire * vdd2 * freq;
  p.repeaterDyn = activity * cRep * vdd2 * freq;
  p.leakage = nRep * design.size * driver.unitLeakage;
  return p;
}

double repeaterCountForLength(const RepeaterDesign& design, double length) {
  return std::max(1.0, std::round(length / design.segmentLength));
}

}  // namespace nano::interconnect
