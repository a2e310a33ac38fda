#include "device/gate_model.h"

#include <stdexcept>

#include "util/units.h"

namespace nano::device {

using namespace nano::units;

namespace {
// Gate capacitance overhead for overlap + Miller coupling, as a fraction of
// the intrinsic channel capacitance.
constexpr double kOverlapFraction = 0.4;
// Output junction + Miller parasitic as a fraction of the input capacitance.
constexpr double kSelfLoadFraction = 0.6;
// Switching-resistance model: Req = 3/4 * Vdd / Idsat (Rabaey), step input;
// the slope factor accounts for non-ideal input edges.
constexpr double kReqFactor = 0.75;
constexpr double kSlopeFactor = 1.5;
constexpr double kLn2 = 0.6931471805599453;
}  // namespace

InverterModel::InverterModel(const tech::TechNode& node, double vth,
                             double vddOperating, GateGeometry geometry,
                             double temperature, GateStack stack)
    : node_(&node),
      nmos_(Mosfet::fromNode(node, vth, vddOperating, stack, temperature)),
      vdd_(vddOperating) {
  if (vddOperating <= 0) throw std::invalid_argument("InverterModel: Vdd <= 0");
  const double drawnL = node.featureNm * nm;
  wn_ = geometry.wnOverL * drawnL;
  wp_ = geometry.wpOverL * drawnL;
}

double InverterModel::inputCap() const {
  const double channelArea = (wn_ + wp_) * nmos_.params().leff;
  return nmos_.coxElectrical() * channelArea * (1.0 + kOverlapFraction);
}

double InverterModel::outputCap() const { return kSelfLoadFraction * inputCap(); }

double InverterModel::driveCurrentN() const {
  return nmos_.ionSelfConsistent(vdd_) * wn_;
}

double InverterModel::driveCurrentP() const {
  return kPmosCurrentFactor * nmos_.ionSelfConsistent(vdd_) * wp_;
}

double InverterModel::delay(double loadCap) const {
  const double ctot = loadCap + outputCap();
  const double reqN = kReqFactor * vdd_ / driveCurrentN();
  const double reqP = kReqFactor * vdd_ / driveCurrentP();
  const double reqAvg = 0.5 * (reqN + reqP);
  return kLn2 * kSlopeFactor * reqAvg * ctot;
}

double InverterModel::fo4Delay(double wireCap) const {
  return delay(4.0 * inputCap() + wireCap);
}

double InverterModel::switchingEnergy(double loadCap) const {
  const double ctot = loadCap + outputCap();
  return ctot * vdd_ * vdd_;
}

double InverterModel::dynamicPower(double loadCap, double freq,
                                   double activity) const {
  return activity * switchingEnergy(loadCap) * freq;
}

double InverterModel::leakagePower() const {
  // The output sits high (NMOS leaking) or low (PMOS leaking) with equal
  // probability; PMOS per-width leakage follows its weaker drive.
  const double ioffPerWidth = nmos_.ioff(vdd_);
  const double widthEff = 0.5 * (wn_ + kPmosCurrentFactor * wp_);
  return vdd_ * ioffPerWidth * widthEff;
}

double staticToDynamicRatio(const tech::TechNode& node, double activity,
                            double temperature, double vddOverride) {
  if (activity <= 0) throw std::invalid_argument("staticToDynamicRatio: activity <= 0");
  const double vdd = vddOverride > 0 ? vddOverride : node.vdd;
  // The device is designed to meet the Ion target at its actual operating
  // supply (the paper re-solves Vth for the 50 nm @ 0.7 V variant).
  const double vth = solveVthForIon(node, node.ionTarget, GateStack::Poly, vdd);
  const InverterModel inv(node, vth, vdd, GateGeometry{}, temperature);
  const double wireCap = node.localWireCapPerM * node.avgLocalWireLength;
  const double load = 4.0 * inv.inputCap() + wireCap;
  const double pdyn = inv.dynamicPower(load, node.clockLocal, activity);
  return inv.leakagePower() / pdyn;
}

}  // namespace nano::device
