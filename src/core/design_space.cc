#include "core/design_space.h"

#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "device/gate_model.h"
#include "device/mosfet.h"
#include "exec/exec.h"
#include "kernel/device_batch.h"
#include "obs/obs.h"
#include "util/numeric.h"

namespace nano::core {

namespace {

/// Nominal-corner reference shared by all points of one exploration. The
/// prepared DeviceKernel replaces the historical Mosfet-per-point
/// construction (which re-derived Cox, mobility and swing twice per grid
/// cell); its evaluators are bit-identical to that path.
struct Reference {
  kernel::DeviceKernel kern;
  const tech::TechNode* node = nullptr;
  double vdd0 = 0.0;
  double vth0 = 0.0;
  double loadCap = 0.0;
  double widthEff = 0.0;
  double freq = 0.0;
  double activity = 0.0;
  double delay0 = 0.0;
  double pdyn0 = 0.0;
  double pstat0 = 0.0;
};

double delayAt(const Reference& ref, double vdd, double vthDesign) {
  return ref.loadCap * vdd / ref.kern.ion(vthDesign, vdd, vdd);
}

double pdynAt(const Reference& ref, double vdd) {
  return ref.activity * ref.loadCap * vdd * vdd * ref.freq;
}

double pstatAt(const Reference& ref, double vdd, double vthDesign) {
  return vdd * ref.kern.ioff(vthDesign, vdd) * ref.widthEff;
}

Reference makeReference(const DesignSpaceOptions& options) {
  const tech::TechNode& node = tech::nodeByFeature(options.nodeNm);
  // Vth is specified at nominal Vdd; DIBL applies below it.
  Reference ref{kernel::DeviceKernel::fromNode(node, node.vdd)};
  ref.node = &node;
  ref.vdd0 = node.vdd;
  ref.vth0 = device::solveVthForIon(*ref.node, ref.node->ionTarget);
  const device::InverterModel inv(*ref.node, ref.vth0, ref.vdd0);
  ref.loadCap = 4.0 * inv.inputCap() +
                ref.node->localWireCapPerM * ref.node->avgLocalWireLength +
                inv.outputCap();
  ref.widthEff = 0.5 * (inv.wn() + device::kPmosCurrentFactor * inv.wp());
  ref.freq = ref.node->clockLocal;
  ref.activity = options.activity;
  ref.delay0 = delayAt(ref, ref.vdd0, ref.vth0);
  ref.pdyn0 = pdynAt(ref, ref.vdd0);
  ref.pstat0 = pstatAt(ref, ref.vdd0, ref.vth0);
  return ref;
}

/// Assemble a point from already-evaluated currents (the batch path) with
/// the exact expressions of the scalar helpers above.
OperatingPoint fromCurrents(const Reference& ref, double vdd,
                            double vthDesign, double ionA, double ioffA) {
  OperatingPoint pt;
  pt.vdd = vdd;
  pt.vthDesign = vthDesign;
  pt.delayNorm = ref.loadCap * vdd / ionA / ref.delay0;
  const double pdyn = pdynAt(ref, vdd);
  const double pstat = vdd * ioffA * ref.widthEff;
  pt.pdynNorm = pdyn / ref.pdyn0;
  pt.pstatNorm = pstat / ref.pstat0;
  pt.ptotalNorm = (pdyn + pstat) / (ref.pdyn0 + ref.pstat0);
  pt.staticFraction = pstat / (pdyn + pstat);
  return pt;
}

OperatingPoint evaluate(const Reference& ref, double vdd, double vthDesign) {
  return fromCurrents(ref, vdd, vthDesign, ref.kern.ion(vthDesign, vdd, vdd),
                      ref.kern.ioff(vthDesign, vdd));
}

}  // namespace

OperatingPoint evaluatePoint(const DesignSpaceOptions& options, double vdd,
                             double vthDesign) {
  if (vdd <= 0) throw std::invalid_argument("evaluatePoint: vdd <= 0");
  return evaluate(makeReference(options), vdd, vthDesign);
}

std::vector<OperatingPoint> exploreDesignSpace(
    const DesignSpaceOptions& options) {
  if (options.vddSteps < 2 || options.vthSteps < 2) {
    throw std::invalid_argument("exploreDesignSpace: need >= 2 steps");
  }
  const Reference ref = makeReference(options);
  // Flatten the Vdd x Vth grid so every cell is one independent slot;
  // slot k = (vdd index, vth index) reproduces the serial nesting order.
  const std::vector<double> vdds =
      util::linspace(options.vddMin, ref.vdd0, options.vddSteps);
  const std::vector<double> vths =
      util::linspace(options.vthMin, options.vthMax, options.vthSteps);
  const std::size_t n = vdds.size() * vths.size();

  // SoA staging for the batched device kernels: each exec block hands its
  // contiguous subrange to ionBatch/ioffBatch, so the prepared constants
  // are amortized over the block instead of paying a Mosfet construction
  // per cell. Slot k is written only by its block; results are
  // bit-identical at any thread count and batch split.
  std::vector<double> vth(n);
  std::vector<double> bias(n);
  for (std::size_t k = 0; k < n; ++k) {
    bias[k] = vdds[k / vths.size()];
    vth[k] = vths[k % vths.size()];
  }
  std::vector<double> ion(n);
  std::vector<double> ioff(n);
  std::vector<OperatingPoint> pts(n);
  exec::parallelForBlocked(n, [&](std::size_t begin, std::size_t end) {
    const std::size_t len = end - begin;
    const std::span<const double> v{vth.data() + begin, len};
    const std::span<const double> b{bias.data() + begin, len};
    ref.kern.ionBatch(v, b, b, {ion.data() + begin, len});
    ref.kern.ioffBatch(v, b, {ioff.data() + begin, len});
    for (std::size_t k = begin; k < end; ++k) {
      pts[k] = fromCurrents(ref, bias[k], vth[k], ion[k], ioff[k]);
    }
  });
  return pts;
}

OperatingPoint optimalPoint(const DesignSpaceOptions& options,
                            double delayTarget, double maxStaticFraction) {
  if (delayTarget < 1e-3) {
    throw std::invalid_argument("optimalPoint: bad delay target");
  }
  if (maxStaticFraction <= 0 || maxStaticFraction > 1.0) {
    throw std::invalid_argument("optimalPoint: bad static cap");
  }
  const Reference ref = makeReference(options);

  // For a fixed Vdd, the fastest admissible Vth is the one meeting the
  // delay target exactly (delay is monotone increasing in Vth); total
  // power at fixed Vdd is then minimized by the HIGHEST Vth that still
  // meets timing (static power falls, dynamic unchanged).
  auto bestAtVdd = [&](double vdd) -> OperatingPoint {
    auto delayErr = [&](double vth) {
      return delayAt(ref, vdd, vth) / ref.delay0 - delayTarget;
    };
    OperatingPoint pt;
    pt.ptotalNorm = std::numeric_limits<double>::infinity();
    // If even the lowest Vth misses the target, Vdd is infeasible.
    if (delayErr(options.vthMin) > 0.0) return pt;
    double vth = options.vthMax;
    if (delayErr(options.vthMax) > 0.0) {
      // Per-point recovery: a failed solve marks this Vdd infeasible
      // instead of throwing out of the parallel sweep.
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

  // Evaluate each Vdd in parallel, then reduce serially with the same
  // strict < as before: the first minimum in sweep order wins regardless
  // of thread count.
  const std::vector<double> vdds =
      util::linspace(options.vddMin, ref.vdd0, 4 * options.vddSteps);
  const std::vector<OperatingPoint> pts = exec::parallelMap<OperatingPoint>(
      vdds.size(), [&](std::size_t i) { return bestAtVdd(vdds[i]); });
  OperatingPoint best;
  best.ptotalNorm = std::numeric_limits<double>::infinity();
  for (const OperatingPoint& pt : pts) {
    if (pt.ptotalNorm < best.ptotalNorm) best = pt;
  }
  if (!std::isfinite(best.ptotalNorm)) {
    throw std::runtime_error("optimalPoint: delay target infeasible");
  }
  return best;
}

}  // namespace nano::core
