#include "device/mosfet.h"

#include <cmath>
#include <stdexcept>

#include "kernel/ion_solve.h"
#include "obs/obs.h"
#include "util/numeric.h"
#include "util/units.h"

namespace nano::device {

using namespace nano::units;

namespace {
constexpr double kPolyElectricalExtra = 7.0e-10;   // +7 A: inversion + GDE
constexpr double kMetalElectricalExtra = 3.5e-10;  // +3.5 A: inversion only
constexpr double kRoomTemperature = 300.0;
}  // namespace

Mosfet::Mosfet(const MosfetParams& params) : params_(params) {
  if (params_.toxPhysical <= 0 || params_.leff <= 0) {
    throw std::invalid_argument("Mosfet: non-positive geometry");
  }
  if (params_.temperature <= 0) {
    throw std::invalid_argument("Mosfet: non-positive temperature");
  }
}

Mosfet Mosfet::fromNode(const tech::TechNode& node, double vth, GateStack stack,
                        double temperature) {
  MosfetParams p;
  p.toxPhysical = node.toxPhysical;
  p.gateStack = stack;
  p.leff = node.leff;
  p.vthNominal = vth;
  p.vddReference = node.vdd;
  p.rsOhmM = node.rsSourceOhmM;
  p.dibl = node.dibl;
  p.swing300K = node.subthresholdSwing;
  p.temperature = temperature;
  return Mosfet(p);
}

double Mosfet::toxElectrical() const {
  const double extra = params_.gateStack == GateStack::Metal
                           ? kMetalElectricalExtra
                           : kPolyElectricalExtra;
  return params_.toxPhysical + extra;
}

double Mosfet::coxElectrical() const { return epsSiO2 / toxElectrical(); }

double Mosfet::coxPhysical() const { return epsSiO2 / params_.toxPhysical; }

double Mosfet::vthEffective(double vds) const {
  if (vds < 0) vds = params_.vddReference;
  const double tempShift =
      params_.vthTempCo * (params_.temperature - kRoomTemperature);
  // Below the reference drain bias the barrier is taller (less DIBL), so
  // the effective threshold rises; above it, DIBL lowers the threshold.
  return params_.vthNominal + tempShift +
         params_.dibl * (params_.vddReference - vds);
}

double Mosfet::subthresholdSwing() const {
  return params_.swing300K * params_.temperature / kRoomTemperature;
}

double Mosfet::mobility(double vgs) const {
  // Universal mobility: Eeff ~= (Vgs + Vth) / (6 * Tox) for NMOS.
  const double vth = vthEffective(params_.vddReference);
  const double eeff = std::max(vgs + vth, 0.05) / (6.0 * toxElectrical());
  const double mu0T =
      params_.mu0 * std::pow(kRoomTemperature / params_.temperature, 1.5);
  // nu == 2 (the universal-mobility default) gets r*r instead of pow();
  // on this libm pow(r, 2.0) == r*r bit-exactly, and the kernel
  // equivalence tests pin that assumption.
  const double r = eeff / params_.e0Universal;
  const double degradation =
      params_.nuUniversal == 2.0 ? r * r : std::pow(r, params_.nuUniversal);
  return mu0T / (1.0 + degradation);
}

double Mosfet::esat(double vgs) const { return 2.0 * params_.vsat / mobility(vgs); }

double Mosfet::smoothedOverdrive(double vgs, double vth) const {
  // EKV interpolation: vgt_eff = 2*n*vt*ln(1 + exp((vgs-vth)/(2*n*vt))),
  // with n*vt = S/ln(10). Squaring it in Eq. (3) reproduces the correct
  // exp(vgt/(n*vt)) subthreshold slope.
  const double nvt = subthresholdSwing() / std::log(10.0);
  const double x = (vgs - vth) / (2.0 * nvt);
  if (x > 30.0) return vgs - vth;  // avoid exp overflow; smoothing negligible
  return 2.0 * nvt * std::log1p(std::exp(x));
}

double Mosfet::idsat0(double vgs, double vds) const {
  if (vds < 0) vds = params_.vddReference;
  const double vth = vthEffective(vds);
  const double vgt = smoothedOverdrive(vgs, vth);
  const double mu = mobility(vgs);
  const double esatL = esat(vgs) * params_.leff;
  const double cox = coxElectrical();
  return (mu * cox / (2.0 * params_.leff)) * vgt * vgt / (1.0 + vgt / esatL);
}

double Mosfet::ionSelfConsistent(double vgs, double vds) const {
  // Solve I = Idsat0(vgs - I*Rs): the source resistance debiases the gate.
  if (!std::isfinite(vgs)) return std::nan("");
  const double iMax = idsat0(vgs, vds);
  if (!std::isfinite(iMax)) return std::nan("");
  if (iMax <= 0) return 0.0;
  // f(0) = iMax > 0 and f(iMax) <= 0 (degeneration can only reduce
  // current), so [0, iMax] brackets the fixed point. The shared Illinois
  // solver (kernel/ion_solve.h) is also what kernel::DeviceKernel::ion
  // runs, so the scalar and batched paths are bit-identical.
  const double rs = params_.rsOhmM;
  const kernel::IonSolveResult r = kernel::solveDegeneratedIon(
      [&](double i) { return idsat0(vgs - i * rs, vds); }, iMax,
      iMax * 1e-12);
  if (!r.converged) NANO_OBS_COUNT("device/ion_solve_nonconverged", 1);
  return r.x;
}

double Mosfet::ion() const { return ionSelfConsistent(params_.vddReference); }

double Mosfet::ioff(double vds) const {
  if (vds < 0) vds = params_.vddReference;
  const double vth = vthEffective(vds);
  return params_.ioffPrefactor * std::pow(10.0, -vth / subthresholdSwing());
}

double Mosfet::linearConductance(double vgs) const {
  // Near vds = 0 there is no DIBL relief: use the threshold at low drain
  // bias, smoothed so the expression decays into subthreshold.
  const double vth = vthEffective(0.0);
  const double vgt = smoothedOverdrive(vgs, vth);
  return mobility(vgs) * coxElectrical() * vgt / params_.leff;
}

VthSolveResult solveVthForIonChecked(const tech::TechNode& node,
                                     double ionTarget, GateStack stack,
                                     double vddOverride, double temperature,
                                     const VthSolveOptions& options) {
  NANO_OBS_SPAN("device/solve_vth");
  VthSolveResult out;
  out.diag.kernel = "device/solve_vth";
  const double vdd = vddOverride > 0 ? vddOverride : node.vdd;
  NANO_OBS_COUNT("device/vth_solves", 1);

  // NaN/Inf guard on the model inputs before any device is constructed:
  // a poisoned target would otherwise surface as a confusing bracket
  // failure 40 expansions later.
  if (!std::isfinite(ionTarget) || !std::isfinite(vdd) ||
      !std::isfinite(temperature)) {
    out.vth = std::nan("");
    out.diag.status = util::SolverStatus::NanDetected;
    out.diag.residual = std::nan("");
    NANO_OBS_COUNT("device/vth_solve_nonconverged", 1);
    return out;
  }

  auto ionAtVth = [&](double vth) {
    MosfetParams p;
    p.toxPhysical = node.toxPhysical;
    p.gateStack = stack;
    p.leff = node.leff;
    p.vthNominal = vth;
    p.vddReference = vdd;
    p.rsOhmM = node.rsSourceOhmM;
    p.dibl = node.dibl;
    p.swing300K = node.subthresholdSwing;
    p.temperature = temperature;
    return Mosfet(p).ionSelfConsistent(vdd) - ionTarget;
  };
  // Ion decreases monotonically with Vth; search a generous bracket.
  util::SolveResult r = util::tryBracketAndSolve(
      ionAtVth, -0.2, vdd, options.maxExpand, options.xtol, options.maxIter);
  if (r.status == util::SolverStatus::BracketFailure) {
    // Re-expansion: retry once on a much wider window before giving up.
    // Deep-subthreshold targets (tiny Ion) push the root far above Vdd.
    const util::SolveResult wide =
        util::tryBracketAndSolve(ionAtVth, -1.0, 2.0 * vdd + 1.0,
                                 options.maxExpand + 20, options.xtol,
                                 options.maxIter);
    if (wide.status != util::SolverStatus::BracketFailure) {
      NANO_OBS_COUNT("device/vth_solve_rebracketed", 1);
      r = wide;
    }
  }
  out.vth = r.x;
  out.diag = r.diagnostics();
  out.diag.kernel = "device/solve_vth";
  NANO_OBS_COUNT("device/vth_solve_iterations", r.iterations);
  if (!r.converged) NANO_OBS_COUNT("device/vth_solve_nonconverged", 1);
  return out;
}

double solveVthForIon(const tech::TechNode& node, double ionTarget,
                      GateStack stack, double vddOverride, double temperature) {
  const VthSolveResult r =
      solveVthForIonChecked(node, ionTarget, stack, vddOverride, temperature);
  if (r.diag.status == util::SolverStatus::BracketFailure ||
      r.diag.status == util::SolverStatus::NanDetected) {
    throw std::invalid_argument("solveVthForIon: " + r.diag.describe());
  }
  return r.vth;
}

}  // namespace nano::device
