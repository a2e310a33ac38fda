// Oracle for the constants Mosfet evaluates once in its constructor: a
// verbatim copy of the per-call formulas the model used before they were
// hoisted, which recompute the swing, 2*n*vt, Tox/Cox, 6*Tox and
// mu0*(300/T)^1.5 inside every call. The hoisted device must agree with it
// bit for bit, and withVth() must agree bit for bit with a device
// constructed at the new Vth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "device/ion_solve.h"
#include "device/mosfet.h"
#include "tech/itrs.h"
#include "util/numeric.h"
#include "util/units.h"

namespace nano::device {
namespace {

using namespace nano::units;

constexpr double kPolyElectricalExtra = 7.0e-10;
constexpr double kMetalElectricalExtra = 3.5e-10;
constexpr double kRoomTemperature = 300.0;

/// The per-call model, expression for expression.
struct PerCallMosfet {
  MosfetParams params_;

  double toxElectrical() const {
    const double extra = params_.gateStack == GateStack::Metal
                             ? kMetalElectricalExtra
                             : kPolyElectricalExtra;
    return params_.toxPhysical + extra;
  }

  double coxElectrical() const { return epsSiO2 / toxElectrical(); }

  double vthEffective(double vds) const {
    if (vds < 0) vds = params_.vddReference;
    const double tempShift =
        params_.vthTempCo * (params_.temperature - kRoomTemperature);
    return params_.vthNominal + tempShift +
           params_.dibl * (params_.vddReference - vds);
  }

  double subthresholdSwing() const {
    return params_.swing300K * params_.temperature / kRoomTemperature;
  }

  double mobility(double vgs) const {
    const double vth = vthEffective(params_.vddReference);
    const double eeff = std::max(vgs + vth, 0.05) / (6.0 * toxElectrical());
    const double mu0T =
        params_.mu0 * std::pow(kRoomTemperature / params_.temperature, 1.5);
    const double r = eeff / params_.e0Universal;
    const double degradation =
        params_.nuUniversal == 2.0 ? r * r : std::pow(r, params_.nuUniversal);
    return mu0T / (1.0 + degradation);
  }

  double esat(double vgs) const { return 2.0 * params_.vsat / mobility(vgs); }

  double smoothedOverdrive(double vgs, double vth) const {
    const double nvt = subthresholdSwing() / std::log(10.0);
    const double x = (vgs - vth) / (2.0 * nvt);
    if (x > 30.0) return vgs - vth;
    return 2.0 * nvt * std::log1p(std::exp(x));
  }

  double idsat0(double vgs, double vds = -1.0) const {
    if (vds < 0) vds = params_.vddReference;
    const double vth = vthEffective(vds);
    const double vgt = smoothedOverdrive(vgs, vth);
    const double mu = mobility(vgs);
    const double esatL = esat(vgs) * params_.leff;
    const double cox = coxElectrical();
    return (mu * cox / (2.0 * params_.leff)) * vgt * vgt /
           (1.0 + vgt / esatL);
  }

  double ionSelfConsistent(double vgs, double vds = -1.0) const {
    if (!std::isfinite(vgs)) return std::nan("");
    const double iMax = idsat0(vgs, vds);
    if (!std::isfinite(iMax)) return std::nan("");
    if (iMax <= 0) return 0.0;
    const double rs = params_.rsOhmM;
    return solveDegeneratedIon(
               [&](double i) { return idsat0(vgs - i * rs, vds); }, iMax,
               iMax * 1e-12)
        .x;
  }

  double ioff(double vds = -1.0) const {
    if (vds < 0) vds = params_.vddReference;
    const double vth = vthEffective(vds);
    return params_.ioffPrefactor *
           std::pow(10.0, -vth / subthresholdSwing());
  }

  double linearConductance(double vgs) const {
    const double vth = vthEffective(0.0);
    const double vgt = smoothedOverdrive(vgs, vth);
    return mobility(vgs) * coxElectrical() * vgt / params_.leff;
  }
};

constexpr GateStack kStacks[] = {GateStack::Poly, GateStack::Metal};
// 85 C is Figure 1's corner; at 0 C, swing300K * T / 300 and
// swing300K * (T / 300) round differently, so the order is pinned too.
constexpr double kTemperatures[] = {300.0, 358.15, 273.15};

TEST(MosfetOracle, MatchesPerCallFormulasBitExact) {
  for (const int feature : tech::roadmapFeatures()) {
    const auto& node = tech::nodeByFeature(feature);
    const std::vector<double> vths = util::linspace(-0.05, 0.45, 11);
    const std::vector<double> vdds = util::linspace(0.2, node.vdd, 7);
    for (const GateStack stack : kStacks) {
      for (const double t : kTemperatures) {
        for (const double vth : vths) {
          const Mosfet dev = Mosfet::fromNode(node, vth, node.vdd, stack, t);
          const PerCallMosfet ref{dev.params()};
          // EXPECT_EQ on doubles: the contract is bitwise, not approximate.
          EXPECT_EQ(dev.toxElectrical(), ref.toxElectrical());
          EXPECT_EQ(dev.coxElectrical(), ref.coxElectrical());
          EXPECT_EQ(dev.subthresholdSwing(), ref.subthresholdSwing());
          EXPECT_EQ(dev.ion(), ref.ionSelfConsistent(node.vdd));
          EXPECT_EQ(dev.ioff(), ref.ioff());
          EXPECT_EQ(dev.idsat0(node.vdd), ref.idsat0(node.vdd));
          for (const double vdd : vdds) {
            const double vthEff = ref.vthEffective(vdd);
            EXPECT_EQ(dev.vthEffective(vdd), vthEff);
            EXPECT_EQ(dev.mobility(vdd), ref.mobility(vdd));
            EXPECT_EQ(dev.esat(vdd), ref.esat(vdd));
            EXPECT_EQ(dev.smoothedOverdrive(vdd, vthEff),
                      ref.smoothedOverdrive(vdd, vthEff));
            EXPECT_EQ(dev.idsat0(vdd, vdd), ref.idsat0(vdd, vdd));
            EXPECT_EQ(dev.ionSelfConsistent(vdd, vdd),
                      ref.ionSelfConsistent(vdd, vdd));
            EXPECT_EQ(dev.ioff(vdd), ref.ioff(vdd));
            EXPECT_EQ(dev.linearConductance(vdd), ref.linearConductance(vdd));
            // One mismatching device is enough to read; stop there.
            if (HasFailure()) {
              FAIL() << feature << " nm, Vth " << vth << " V, Vdd " << vdd
                     << " V, T " << t << " K";
            }
          }
        }
      }
    }
  }
}

TEST(MosfetOracle, WithVthEqualsAFreshDevice) {
  for (const int feature : tech::roadmapFeatures()) {
    const auto& node = tech::nodeByFeature(feature);
    for (const GateStack stack : kStacks) {
      for (const double t : kTemperatures) {
        const Mosfet base = Mosfet::fromNode(node, 0.3, node.vdd, stack, t);
        for (const double vth : util::linspace(-0.05, 0.45, 11)) {
          const Mosfet copy = base.withVth(vth);
          const Mosfet fresh = Mosfet::fromNode(node, vth, node.vdd, stack, t);
          EXPECT_EQ(copy.params().vthNominal, vth);
          EXPECT_EQ(copy.params().vddReference, fresh.params().vddReference);
          EXPECT_EQ(copy.params().temperature, fresh.params().temperature);
          EXPECT_EQ(copy.params().gateStack, fresh.params().gateStack);
          EXPECT_EQ(copy.toxElectrical(), fresh.toxElectrical());
          EXPECT_EQ(copy.subthresholdSwing(), fresh.subthresholdSwing());
          EXPECT_EQ(copy.vthEffective(0.2), fresh.vthEffective(0.2));
          EXPECT_EQ(copy.ion(), fresh.ion());
          EXPECT_EQ(copy.ioff(), fresh.ioff());
          EXPECT_EQ(copy.ionSelfConsistent(0.5, 0.5),
                    fresh.ionSelfConsistent(0.5, 0.5));
          EXPECT_EQ(copy.ioff(0.5), fresh.ioff(0.5));
          EXPECT_EQ(copy.linearConductance(0.5), fresh.linearConductance(0.5));
        }
      }
    }
  }
}

TEST(MosfetOracle, PowSquareEqualsMulPin) {
  // Mobility takes the r*r fast path when the degradation exponent is
  // exactly 2, where the general form would call pow(r, 2.0). This pins
  // the libm identity the two forms rely on to agree bit for bit.
  for (const double r : {1e-3, 0.17, 0.5, 1.0, 1.9, 3.141592653589793, 42.0}) {
    EXPECT_EQ(std::pow(r, 2.0), r * r);
  }
}

}  // namespace
}  // namespace nano::device
