#include "kernel/device_batch.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "kernel/ion_solve.h"
#include "obs/obs.h"

namespace nano::kernel {

DeviceKernel::DeviceKernel(const device::MosfetParams& base) : params_(base) {
  const device::Mosfet probe(base);  // validates geometry and temperature
  tempShift_ = params_.vthTempCo * (params_.temperature - 300.0);
  swing_ = probe.subthresholdSwing();
  twoNvt_ = 2.0 * (swing_ / std::log(10.0));
  cox_ = probe.coxElectrical();
  sixTox_ = 6.0 * probe.toxElectrical();
  mu0T_ = params_.mu0 * std::pow(300.0 / params_.temperature, 1.5);
  twoVsat_ = 2.0 * params_.vsat;
  twoLeff_ = 2.0 * params_.leff;
}

DeviceKernel DeviceKernel::fromNode(const tech::TechNode& node,
                                    double vddReference,
                                    device::GateStack stack,
                                    double temperature) {
  device::MosfetParams p;
  p.toxPhysical = node.toxPhysical;
  p.gateStack = stack;
  p.leff = node.leff;
  p.vthNominal = 0.0;  // unused: evaluators take Vth per element
  p.vddReference = vddReference;
  p.rsOhmM = node.rsSourceOhmM;
  p.dibl = node.dibl;
  p.swing300K = node.subthresholdSwing;
  p.temperature = temperature;
  return DeviceKernel(p);
}

double DeviceKernel::vthEffective(double vthNominal, double vds) const {
  if (vds < 0) vds = params_.vddReference;
  return vthNominal + tempShift_ +
         params_.dibl * (params_.vddReference - vds);
}

double DeviceKernel::mobility(double vthNominal, double vgs) const {
  const double vth = vthEffective(vthNominal, params_.vddReference);
  const double eeff = std::max(vgs + vth, 0.05) / sixTox_;
  const double r = eeff / params_.e0Universal;
  const double degradation =
      params_.nuUniversal == 2.0 ? r * r : std::pow(r, params_.nuUniversal);
  return mu0T_ / (1.0 + degradation);
}

double DeviceKernel::smoothedOverdrive(double vgs, double vth) const {
  const double x = (vgs - vth) / twoNvt_;
  if (x > 30.0) return vgs - vth;  // avoid exp overflow; smoothing negligible
  return twoNvt_ * std::log1p(std::exp(x));
}

double DeviceKernel::idsat0(double vthNominal, double vgs, double vds) const {
  if (vds < 0) vds = params_.vddReference;
  const double vth = vthEffective(vthNominal, vds);
  const double vgt = smoothedOverdrive(vgs, vth);
  const double mu = mobility(vthNominal, vgs);
  const double esatL = twoVsat_ / mu * params_.leff;
  return (mu * cox_ / twoLeff_) * vgt * vgt / (1.0 + vgt / esatL);
}

double DeviceKernel::ion(double vthNominal, double vgs, double vds) const {
  if (!std::isfinite(vgs)) return std::nan("");
  const double iMax = idsat0(vthNominal, vgs, vds);
  if (!std::isfinite(iMax)) return std::nan("");
  if (iMax <= 0) return 0.0;
  const double rs = params_.rsOhmM;
  const IonSolveResult r = solveDegeneratedIon(
      [&](double i) { return idsat0(vthNominal, vgs - i * rs, vds); }, iMax,
      iMax * 1e-12);
  if (!r.converged) NANO_OBS_COUNT("device/ion_solve_nonconverged", 1);
  return r.x;
}

double DeviceKernel::ioff(double vthNominal, double vds) const {
  if (vds < 0) vds = params_.vddReference;
  const double vth = vthEffective(vthNominal, vds);
  return params_.ioffPrefactor * std::pow(10.0, -vth / swing_);
}

void DeviceKernel::ionBatch(std::span<const double> vthNominal,
                            std::span<const double> vgs,
                            std::span<const double> vds,
                            std::span<double> out) const {
  assert(vthNominal.size() == out.size() && vgs.size() == out.size() &&
         vds.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = ion(vthNominal[i], vgs[i], vds[i]);
  }
}

void DeviceKernel::ioffBatch(std::span<const double> vthNominal,
                             std::span<const double> vds,
                             std::span<double> out) const {
  assert(vthNominal.size() == out.size() && vds.size() == out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = ioff(vthNominal[i], vds[i]);
  }
}

}  // namespace nano::kernel
