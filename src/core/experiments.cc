#include "core/experiments.h"

#include <cmath>
#include <stdexcept>

#include "core/design_space.h"
#include "device/gate_model.h"
#include "device/mosfet.h"
#include "exec/exec.h"
#include "obs/obs.h"
#include "util/numeric.h"
#include "util/units.h"

namespace nano::core {

using namespace nano::units;

namespace {

Table2Row makeTable2Row(const tech::TechNode& node, double vdd,
                        double coxeRef, double coxPhysRef) {
  Table2Row row;
  row.nodeNm = node.featureNm;
  row.vdd = vdd;

  const double vth = device::solveVthForIon(node, node.ionTarget,
                                            device::GateStack::Poly, vdd);
  const device::Mosfet poly = device::Mosfet::fromNode(node, vth, vdd);
  row.coxeNorm = poly.coxElectrical() / coxeRef;
  row.coxPhysNorm = poly.coxPhysical() / coxPhysRef;
  row.vthRequired = vth;
  row.ioffNaUm = poly.ioff(vdd) / nA_per_um;

  const double vthMetal = device::solveVthForIon(
      node, node.ionTarget, device::GateStack::Metal, vdd);
  const device::Mosfet metal = device::Mosfet::fromNode(
      node, vthMetal, vdd, device::GateStack::Metal);
  row.vthMetal = vthMetal;
  row.ioffMetalNaUm = metal.ioff(vdd) / nA_per_um;

  row.ioffItrsNaUm = node.ioffItrs / nA_per_um;
  return row;
}

}  // namespace

Table2 computeTable2() {
  Table2 table;
  const auto& ref = tech::nodeByFeature(180);
  const device::Mosfet refDev = device::Mosfet::fromNode(ref, 0.3, ref.vdd);
  const double coxeRef = refDev.coxElectrical();
  const double coxPhysRef = refDev.coxPhysical();

  // Paper Table 2 reference rows (Vth / Ioff / metal-gate Ioff).
  const double paperVth[6] = {0.30, 0.29, 0.22, 0.14, 0.04, 0.11};
  const double paperIoff[6] = {3, 4, 26, 210, 3205, 456};
  const double paperIoffMetal[6] = {1, 1.4, 8.7, 55, 666, 103};

  int i = 0;
  for (int f : tech::roadmapFeatures()) {
    const auto& node = tech::nodeByFeature(f);
    Table2Row row = makeTable2Row(node, node.vdd, coxeRef, coxPhysRef);
    row.paperVth = paperVth[i];
    row.paperIoff = paperIoff[i];
    row.paperIoffMetal = paperIoffMetal[i];
    table.rows.push_back(row);
    ++i;
  }
  const auto& n50 = tech::nodeByFeature(50);
  table.row50At07 = makeTable2Row(n50, n50.vddAlternative, coxeRef, coxPhysRef);
  table.row50At07.paperVth = 0.12;
  table.row50At07.paperIoff = 432;
  table.row50At07.paperIoffMetal = 100;

  table.modelGrowth = table.rows.back().ioffNaUm / table.rows.front().ioffNaUm;
  table.itrsGrowth =
      table.rows.back().ioffItrsNaUm / table.rows.front().ioffItrsNaUm;
  return table;
}

std::vector<Fig1Point> computeFigure1(int points) {
  const double tHot = fromCelsius(85.0);
  const auto& n70 = tech::nodeByFeature(70);
  const auto& n50 = tech::nodeByFeature(50);
  // Each sweep point is independent; parallelMap keeps slot i for point i
  // so the output ordering matches the serial loop exactly.
  const std::vector<double> activities = util::logspace(0.01, 0.5, points);
  return exec::parallelMap<Fig1Point>(activities.size(), [&](std::size_t i) {
    const double a = activities[i];
    Fig1Point p;
    p.activity = a;
    p.ratio70nm09V = device::staticToDynamicRatio(n70, a, tHot);
    p.ratio50nm07V =
        device::staticToDynamicRatio(n50, a, tHot, n50.vddAlternative);
    p.ratio50nm06V = device::staticToDynamicRatio(n50, a, tHot);
    return p;
  });
}

std::vector<Fig2Point> computeFigure2() {
  const auto features = tech::roadmapFeatures();
  return exec::parallelMap<Fig2Point>(features.size(), [&](std::size_t i) {
    const int f = features[i];
    const auto& node = tech::nodeByFeature(f);
    const double vthHigh = device::solveVthForIon(node, node.ionTarget);
    const device::Mosfet high =
        device::Mosfet::fromNode(node, vthHigh, node.vdd);
    const device::Mosfet low = high.withVth(vthHigh - 0.100);
    const double ionHigh = high.ion();

    Fig2Point p;
    p.nodeNm = f;
    p.ionGainPercent = 100.0 * (low.ion() / ionHigh - 1.0);

    // Vth reduction needed for +20 % Ion, converted to an Ioff multiplier
    // through Eq. (4).
    const double vth20 =
        device::solveVthForIon(node, 1.2 * node.ionTarget);
    const double dvth = vthHigh - vth20;
    p.ioffPenaltyFor20 = std::pow(10.0, dvth / node.subthresholdSwing);
    return p;
  });
}

const char* policyName(VthPolicy policy) {
  switch (policy) {
    case VthPolicy::Constant: return "constant Vth";
    case VthPolicy::ConstantPstatic: return "scaled Vth, Pstatic constant";
    case VthPolicy::Conservative: return "conservatively scaled Vth";
  }
  throw std::logic_error("policyName: bad policy");
}

namespace {

/// Per-point solve with recovery: a failed bracket retries once on a wider
/// window; a terminal failure returns NaN so one bad sweep point marks
/// itself instead of throwing out of a parallel map.
double solvePolicyVth(const std::function<double(double)>& f, double vth0) {
  util::SolveResult r =
      util::tryBracketAndSolve(f, vth0 - 0.3, vth0 + 0.1, 40, 1e-9);
  if (r.status == util::SolverStatus::BracketFailure) {
    r = util::tryBracketAndSolve(f, vth0 - 0.8, vth0 + 0.5, 60, 1e-9);
    if (r.status != util::SolverStatus::BracketFailure) {
      NANO_OBS_COUNT("core/fig34_vth_rebracketed", 1);
    }
  }
  if (r.status == util::SolverStatus::BracketFailure ||
      r.status == util::SolverStatus::NanDetected) {
    NANO_OBS_COUNT("core/fig34_point_failed", 1);
    return std::nan("");
  }
  return r.x;
}

double vthForPolicy(const SweepReference& ref, VthPolicy policy,
                    double vdd) {
  switch (policy) {
    case VthPolicy::Constant:
      return ref.vth0;
    case VthPolicy::ConstantPstatic:
      // Vdd * Ioff(vth, vdd) == Vdd0 * Ioff0.
      return solvePolicyVth(
          [&](double vth) { return ref.pstat(vdd, vth) - ref.pstat0; },
          ref.vth0);
    case VthPolicy::Conservative:
      // Ioff(vth, vdd) == Ioff0: Pstatic scales linearly with Vdd.
      return solvePolicyVth(
          [&](double vth) {
            return ref.device.withVth(vth).ioff(vdd) - ref.ioff0;
          },
          ref.vth0);
  }
  throw std::logic_error("vthForPolicy: bad policy");
}

}  // namespace

std::vector<Fig34Point> computeFigure34(int nodeNm, int points,
                                        double activity, double vddMin) {
  const SweepReference ref = makeSweepReference(nodeNm, activity);
  const std::vector<double> vdds = util::linspace(vddMin, ref.vdd0, points);
  // Each Vdd point runs three Newton solves; they only read the shared
  // reference, so the sweep parallelizes without any synchronization.
  return exec::parallelMap<Fig34Point>(vdds.size(), [&](std::size_t i) {
    const double vdd = vdds[i];
    Fig34Point pt;
    pt.vdd = vdd;
    for (std::size_t k = 0; k < kVthPolicies.size(); ++k) {
      const double vth = vthForPolicy(ref, kVthPolicies[k], vdd);
      pt.vthDesign[k] = vth;
      pt.delayNorm[k] = ref.delay(vdd, vth) / ref.delay0;
      pt.pdynOverPstat[k] = ref.pdyn(vdd) / ref.pstat(vdd, vth);
    }
    return pt;
  });
}

Section33Claims computeSection33Claims(double activity) {
  const SweepReference ref = makeSweepReference(35, activity);
  Section33Claims c;
  const double vLow = 0.2;
  c.delayRatioConstVthAt02 = ref.delay(vLow, ref.vth0) / ref.delay0;
  const double vthScaled = vthForPolicy(ref, VthPolicy::ConstantPstatic, vLow);
  c.delayRatioScaledAt02 = ref.delay(vLow, vthScaled) / ref.delay0;
  c.dynReductionAt02 = 1.0 - (vLow * vLow) / (ref.vdd0 * ref.vdd0);

  // Vdd where Pdyn/Pstat hits 10 on the constant-Pstatic policy.
  auto ratioMinus10 = [&](double vdd) {
    const double vth = vthForPolicy(ref, VthPolicy::ConstantPstatic, vdd);
    return ref.pdyn(vdd) / ref.pstat(vdd, vth) - 10.0;
  };
  // bracketAndSolve (maxExpand 0) keeps brent's contract on the fixed
  // interval but adds the bisection fallback if a Brent solve stalls.
  c.vddAtRatio10 =
      util::bracketAndSolve(ratioMinus10, 0.2, ref.vdd0, 0, 1e-6).x;
  c.dynReductionAtRatio10 =
      1.0 - (c.vddAtRatio10 * c.vddAtRatio10) / (ref.vdd0 * ref.vdd0);
  return c;
}

std::vector<Fig5Row> computeFigure5(bool withMeshCrossCheck,
                                    const powergrid::GridSolverOptions& solver) {
  powergrid::IrDropOptions options;
  options.runMesh = withMeshCrossCheck;
  options.solver = solver;
  // One mesh solve per roadmap node — the heaviest per-item sweep here.
  const auto features = tech::roadmapFeatures();
  return exec::parallelMap<Fig5Row>(features.size(), [&](std::size_t i) {
    const auto& node = tech::nodeByFeature(features[i]);
    Fig5Row row;
    row.nodeNm = features[i];
    row.minPitch = powergrid::minPitchReport(node, options);
    row.itrs = powergrid::itrsPitchReport(node, options);
    return row;
  });
}

}  // namespace nano::core
