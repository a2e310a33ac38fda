#include "power/standby.h"

#include <cmath>
#include <stdexcept>

#include "obs/obs.h"
#include "util/numeric.h"
#include "util/units.h"

namespace nano::power {

using namespace nano::units;

double subthresholdCurrent(const device::Mosfet& device, double vgs,
                           double vds) {
  const double swing = device.subthresholdSwing();
  const double vth = device.vthEffective(vds);
  // Ioff at vgs = 0 is Eq. (4); the gate bias moves it one decade per
  // swing. The (1 - exp(-vds/vt)) drain-saturation factor matters when
  // the stack squeezes vds down to a few thermal voltages.
  const double vt = thermalVoltage(device.params().temperature);
  const double drainFactor = 1.0 - std::exp(-std::max(vds, 0.0) / vt);
  return device.params().ioffPrefactor *
         std::pow(10.0, (vgs - vth) / swing) * drainFactor;
}

StackSolveResult stackIntermediateVoltageChecked(const device::Mosfet& top,
                                                 const device::Mosfet& bottom) {
  const double vdd = top.params().vddReference;
  // Top device: gate 0, source at Vx => vgs = -Vx, vds = Vdd - Vx.
  // Bottom device: gate 0, source gnd => vgs = 0, vds = Vx.
  auto mismatch = [&](double vx) {
    return subthresholdCurrent(top, -vx, vdd - vx) -
           subthresholdCurrent(bottom, 0.0, vx);
  };
  // At vx~0 the top conducts more (full vds, vgs=0 vs bottom vds=0);
  // as vx grows the top's source degeneration chokes it. Bracketed root.
  util::SolveResult r =
      util::tryBracketAndSolve(mismatch, 1e-6, 0.5 * vdd, 30, 1e-12);
  if (r.status == util::SolverStatus::BracketFailure) {
    // Strongly mismatched Vth pairs can push the self-bias point above
    // Vdd/2; retry across (almost) the whole rail before reporting.
    r = util::tryBracketAndSolve(mismatch, 1e-9, 0.999 * vdd, 40, 1e-12);
    if (r.status != util::SolverStatus::BracketFailure) {
      NANO_OBS_COUNT("power/stack_vx_rebracketed", 1);
    }
  }
  StackSolveResult out;
  out.vx = r.x;
  out.diag = r.diagnostics();
  out.diag.kernel = "power/stack_vx";
  if (!r.converged) NANO_OBS_COUNT("power/stack_vx_nonconverged", 1);
  return out;
}

double stackIntermediateVoltage(const device::Mosfet& top,
                                const device::Mosfet& bottom) {
  const StackSolveResult r = stackIntermediateVoltageChecked(top, bottom);
  if (r.diag.status == util::SolverStatus::BracketFailure ||
      r.diag.status == util::SolverStatus::NanDetected) {
    throw std::invalid_argument("stackIntermediateVoltage: " +
                                r.diag.describe());
  }
  return r.vx;
}

double stackIntermediateVoltage(const device::Mosfet& device) {
  return stackIntermediateVoltage(device, device);
}

MixedStackReport mixedVthStack(const tech::TechNode& node, double vthLow,
                               double vthHigh) {
  MixedStackReport rep;
  const device::Mosfet low = device::Mosfet::fromNode(node, vthLow, node.vdd);
  const device::Mosfet high = device::Mosfet::fromNode(node, vthHigh, node.vdd);
  const double vdd = node.vdd;

  // Off-state leakage: all-low stack vs low-top/high-bottom stack.
  const double vxAllLow = stackIntermediateVoltage(low, low);
  const double allLow = subthresholdCurrent(low, 0.0, vxAllLow);
  rep.intermediateVoltage = stackIntermediateVoltage(low, high);
  const double mixed = subthresholdCurrent(high, 0.0, rep.intermediateVoltage);
  rep.leakageVsAllLow = mixed / allLow;

  // Pull-down delay: series switching resistance of the stack. Both
  // devices see full gate drive when on; R ~ Vdd/Ion per device.
  const double rLow = vdd / low.ionSelfConsistent(vdd);
  const double rHigh = vdd / high.ionSelfConsistent(vdd);
  rep.delayVsAllLow = (rLow + rHigh) / (2.0 * rLow);
  return rep;
}

double stackLeakageFactor(const device::Mosfet& device, int depth) {
  if (depth < 1) throw std::invalid_argument("stackLeakageFactor: depth < 1");
  const double vdd = device.params().vddReference;
  const double single = subthresholdCurrent(device, 0.0, vdd);
  if (depth == 1) return 1.0;
  if (depth == 2) {
    const double vx = stackIntermediateVoltage(device);
    return subthresholdCurrent(device, 0.0, vx) / single;
  }
  // Deeper stacks: solve the chain numerically. Current through every
  // device equal; parameterize by the bottom device's vds and march up.
  auto currentMismatch = [&](double vBottom) {
    const double i = subthresholdCurrent(device, 0.0, vBottom);
    double vLow = vBottom;  // source potential of the device above
    for (int k = 1; k < depth; ++k) {
      // Device k: source at vLow, gate 0. Find its drain potential vHigh
      // such that it carries i: monotone in vHigh.
      auto f = [&](double vHigh) {
        return subthresholdCurrent(device, -vLow, vHigh - vLow) - i;
      };
      const double top = vdd + 0.5;
      if (f(top) < 0.0) {
        // Even at the rail this device cannot carry i: i too large.
        return 1.0;
      }
      const util::SolveResult inner =
          util::tryBracketAndSolve(f, vLow + 1e-9, top, 0, 1e-12);
      if (inner.status == util::SolverStatus::BracketFailure ||
          inner.status == util::SolverStatus::NanDetected) {
        // Same meaning as the rail check above: this rung cannot carry i.
        return 1.0;
      }
      vLow = inner.x;
    }
    return vLow - vdd;  // want the top drain to land exactly on Vdd
  };
  const util::SolveResult outer =
      util::tryBracketAndSolve(currentMismatch, 1e-7, 0.5 * vdd, 0, 1e-12);
  if (outer.status == util::SolverStatus::BracketFailure ||
      outer.status == util::SolverStatus::NanDetected) {
    throw std::invalid_argument("stackLeakageFactor: " +
                                outer.diagnostics().describe());
  }
  if (!outer.converged) NANO_OBS_COUNT("power/stack_chain_nonconverged", 1);
  return subthresholdCurrent(device, 0.0, outer.x) / single;
}

SleepTransistorDesign sizeSleepTransistor(const tech::TechNode& node,
                                          const MtcmosBlock& block,
                                          double maxDelayPenalty) {
  if (maxDelayPenalty <= 0 || maxDelayPenalty >= 1) {
    throw std::invalid_argument("sizeSleepTransistor: penalty in (0,1)");
  }
  SleepTransistorDesign d;
  const double vdd = node.vdd;
  // Delay penalty ~ drop / (Vdd - VthLow): the bounce steals overdrive.
  const double maxDrop = maxDelayPenalty * (vdd - block.vthLow);
  d.virtualRailDrop = maxDrop;

  // The sleep device sits in deep triode with full gate drive; its
  // per-width conductance is the compact model's linear-region slope.
  const double vthSleep = block.vthLow + block.vthSleepOffset;
  const device::Mosfet sleepDev =
      device::Mosfet::fromNode(node, vthSleep, node.vdd);
  const double gPerWidth = sleepDev.linearConductance(vdd);
  // Need drop = I_peak / (g_per_width * W) <= maxDrop.
  d.width = block.peakCurrent / (gPerWidth * maxDrop);
  d.delayPenalty = maxDelayPenalty;

  d.standbyLeakage = sleepDev.ioff(vdd) * d.width;
  const device::Mosfet blockDev =
      device::Mosfet::fromNode(node, block.vthLow, node.vdd);
  d.activeLeakage = blockDev.ioff(vdd) * block.totalDeviceWidth;
  d.areaOverhead = d.width / block.totalDeviceWidth;
  return d;
}

double bodyBiasLeakageReduction(const tech::TechNode& node,
                                double reverseBias) {
  if (reverseBias < 0) {
    throw std::invalid_argument("bodyBiasLeakageReduction: negative bias");
  }
  const double dVth = node.bodyEffect * reverseBias;
  return std::pow(10.0, dVth / node.subthresholdSwing);
}

}  // namespace nano::power
