#include "core/design_space.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "device/gate_model.h"
#include "exec/exec.h"
#include "obs/obs.h"
#include "util/numeric.h"

namespace nano::core {

namespace {

/// Everything of `node`'s reference but `activity` and `pdyn0`.
SweepReference nodeReference(const tech::TechNode& node) {
  const double vth0 = device::solveVthForIon(node, node.ionTarget);
  // Vth is specified at nominal Vdd; DIBL applies below it.
  SweepReference ref{device::Mosfet::fromNode(node, vth0, node.vdd)};
  ref.vdd0 = node.vdd;
  ref.vth0 = vth0;
  const device::InverterModel inv(node, ref.vth0, ref.vdd0);
  ref.loadCap = 4.0 * inv.inputCap() +
                node.localWireCapPerM * node.avgLocalWireLength +
                inv.outputCap();
  ref.widthEff = 0.5 * (inv.wn() + device::kPmosCurrentFactor * inv.wp());
  ref.freq = node.clockLocal;
  ref.delay0 = ref.delay(ref.vdd0, ref.vth0);
  ref.ioff0 = ref.device.ioff(ref.vdd0);
  ref.pstat0 = ref.pstat(ref.vdd0, ref.vth0);
  return ref;
}

}  // namespace

SweepReference makeSweepReference(int nodeNm, double activity) {
  const tech::TechNode& node = tech::nodeByFeature(nodeNm);
  // One entry per roadmap node, in roadmap order, built on first use and
  // never written after, so concurrent lanes read it without a lock.
  static const std::vector<SweepReference> kByNode = [] {
    std::vector<SweepReference> refs;
    for (const tech::TechNode& n : tech::roadmap()) {
      refs.push_back(nodeReference(n));
    }
    return refs;
  }();
  SweepReference ref =
      kByNode[static_cast<std::size_t>(&node - tech::roadmap().data())];
  ref.activity = activity;
  ref.pdyn0 = ref.pdyn(ref.vdd0);
  return ref;
}

double SweepReference::delay(double vdd, double vthDesign) const {
  const double ion = device.withVth(vthDesign).ionSelfConsistent(vdd, vdd);
  return loadCap * vdd / ion;
}

double SweepReference::pdyn(double vdd) const {
  return activity * loadCap * vdd * vdd * freq;
}

double SweepReference::pstat(double vdd, double vthDesign) const {
  return vdd * device.withVth(vthDesign).ioff(vdd) * widthEff;
}

namespace {

/// One point, with Ion and Ioff from one device copy and the expressions
/// of the SweepReference helpers.
OperatingPoint evaluate(const SweepReference& ref, double vdd,
                        double vthDesign) {
  const device::Mosfet dev = ref.device.withVth(vthDesign);
  OperatingPoint pt;
  pt.vdd = vdd;
  pt.vthDesign = vthDesign;
  pt.delayNorm = ref.loadCap * vdd / dev.ionSelfConsistent(vdd, vdd) /
                 ref.delay0;
  const double pdyn = ref.pdyn(vdd);
  const double pstat = vdd * dev.ioff(vdd) * ref.widthEff;
  pt.pdynNorm = pdyn / ref.pdyn0;
  pt.pstatNorm = pstat / ref.pstat0;
  pt.ptotalNorm = (pdyn + pstat) / (ref.pdyn0 + ref.pstat0);
  pt.staticFraction = pstat / (pdyn + pstat);
  return pt;
}

}  // namespace

OperatingPoint evaluatePoint(const DesignSpaceOptions& options, double vdd,
                             double vthDesign) {
  if (vdd <= 0) throw std::invalid_argument("evaluatePoint: vdd <= 0");
  return evaluate(makeSweepReference(options.nodeNm, options.activity), vdd,
                  vthDesign);
}

std::vector<OperatingPoint> exploreDesignSpace(
    const DesignSpaceOptions& options) {
  if (options.vddSteps < 2 || options.vthSteps < 2) {
    throw std::invalid_argument("exploreDesignSpace: need >= 2 steps");
  }
  const SweepReference ref =
      makeSweepReference(options.nodeNm, options.activity);
  // Flatten the Vdd x Vth grid so every cell is one independent slot;
  // slot k = (vdd index, vth index) reproduces the serial nesting order.
  const std::vector<double> vdds =
      util::linspace(options.vddMin, ref.vdd0, options.vddSteps);
  const std::vector<double> vths =
      util::linspace(options.vthMin, options.vthMax, options.vthSteps);
  return exec::parallelMap<OperatingPoint>(
      vdds.size() * vths.size(), [&](std::size_t k) {
        return evaluate(ref, vdds[k / vths.size()], vths[k % vths.size()]);
      });
}

OperatingPoint optimalPoint(const DesignSpaceOptions& options,
                            double delayTarget, double maxStaticFraction) {
  if (delayTarget < 1e-3) {
    throw std::invalid_argument("optimalPoint: bad delay target");
  }
  if (maxStaticFraction <= 0 || maxStaticFraction > 1.0) {
    throw std::invalid_argument("optimalPoint: bad static cap");
  }
  const SweepReference ref =
      makeSweepReference(options.nodeNm, options.activity);

  // For a fixed Vdd, the fastest admissible Vth is the one meeting the
  // delay target exactly (delay is monotone increasing in Vth); total
  // power at fixed Vdd is then minimized by the HIGHEST Vth that still
  // meets timing (static power falls, dynamic unchanged).
  auto bestAtVdd = [&](double vdd) -> OperatingPoint {
    auto delayErr = [&](double vth) {
      return ref.delay(vdd, vth) / ref.delay0 - delayTarget;
    };
    OperatingPoint pt;
    pt.ptotalNorm = std::numeric_limits<double>::infinity();
    // If even the lowest Vth misses the target, Vdd is infeasible.
    if (delayErr(options.vthMin) > 0.0) return pt;
    double vth = options.vthMax;
    if (delayErr(options.vthMax) > 0.0) {
      // Per-point recovery: a failed solve marks this Vdd infeasible
      // instead of throwing out of the scan.
      const util::SolveResult r = util::tryBracketAndSolve(
          delayErr, options.vthMin, options.vthMax, 0, 1e-9);
      if (r.status == util::SolverStatus::BracketFailure ||
          r.status == util::SolverStatus::NanDetected) {
        NANO_OBS_COUNT("core/design_point_failed", 1);
        return pt;
      }
      vth = r.x;
    }
    OperatingPoint candidate = evaluate(ref, vdd, vth);
    // The chosen Vth is the highest meeting timing, which already
    // minimizes the static share at this Vdd; if it still exceeds the
    // cap, this Vdd is infeasible.
    if (candidate.staticFraction > maxStaticFraction) return pt;
    return candidate;
  };

  // Scan the supplies in ascending order, keeping the first minimum under
  // a strict <. At vdd > 0 a sample's total is (pdyn + pstat) / norm with
  // pstat = vdd * Ioff * Weff >= 0, and IEEE addition and division by a
  // positive norm are monotone, so it never falls below pdyn / norm. Once
  // that bound reaches the best total, the sample cannot win, and its Vth
  // solve is skipped.
  const double norm = ref.pdyn0 + ref.pstat0;
  OperatingPoint best;
  best.ptotalNorm = std::numeric_limits<double>::infinity();
  std::int64_t solved = 0;
  for (const double vdd :
       util::linspace(options.vddMin, ref.vdd0, 4 * options.vddSteps)) {
    if (vdd > 0 && norm > 0 && ref.pdyn(vdd) / norm >= best.ptotalNorm) {
      continue;
    }
    ++solved;
    const OperatingPoint pt = bestAtVdd(vdd);
    if (pt.ptotalNorm < best.ptotalNorm) best = pt;
  }
  NANO_OBS_COUNT("core/optimum_samples_solved", solved);
  if (!std::isfinite(best.ptotalNorm)) {
    throw std::runtime_error("optimalPoint: delay target infeasible");
  }
  return best;
}

}  // namespace nano::core
