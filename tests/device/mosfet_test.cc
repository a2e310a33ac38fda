#include "device/mosfet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "util/units.h"

namespace nano::device {
namespace {

using namespace nano::units;
using tech::nodeByFeature;

Mosfet deviceFor(int node, double vth) {
  const tech::TechNode& n = nodeByFeature(node);
  return Mosfet::fromNode(n, vth, n.vdd);
}

/// The paper's Eq. (2): the first-order source-resistance correction as
/// printed. The model uses the self-consistent solve instead; Eq. (2) stays
/// here as its closed-form oracle.
double ionFirstOrder(const Mosfet& m, double vgs) {
  const MosfetParams& p = m.params();
  const double i0 = m.idsat0(vgs);
  const double vgt =
      m.smoothedOverdrive(vgs, m.vthEffective(p.vddReference));
  const double esatL = m.esat(vgs) * p.leff;
  const double irs = i0 * p.rsOhmM;
  return i0 * (1.0 - 2.0 * irs / vgt + irs / (vgt + esatL));
}

TEST(ElectricalOxide, PolyAddsSevenAngstrom) {
  const Mosfet m = deviceFor(100, 0.22);
  EXPECT_NEAR(m.toxElectrical() - m.params().toxPhysical, 7.0 * angstrom,
              1e-13);
}

TEST(ElectricalOxide, MetalGateAddsLess) {
  const Mosfet poly = deviceFor(35, 0.11);
  const tech::TechNode& n35 = nodeByFeature(35);
  const Mosfet metal = Mosfet::fromNode(n35, 0.11, n35.vdd, GateStack::Metal);
  EXPECT_LT(metal.toxElectrical(), poly.toxElectrical());
  EXPECT_GT(metal.coxElectrical(), poly.coxElectrical());
}

TEST(ElectricalOxide, CoxOrdering) {
  const Mosfet m = deviceFor(70, 0.15);
  EXPECT_LT(m.coxElectrical(), m.coxPhysical());
}

TEST(Ioff, MatchesEquation4Exactly) {
  // Eq. (4): Ioff = 10 uA/um * 10^(-Vth/85mV) at the reference bias.
  const Mosfet m = deviceFor(100, 0.22);
  const double expected = 10.0 * std::pow(10.0, -0.22 / 0.085);
  EXPECT_NEAR(m.ioff() / uA_per_um, expected, expected * 1e-9);
}

TEST(Ioff, ExponentialInVth) {
  // One 85 mV step of Vth = exactly one decade of Ioff.
  const Mosfet a = deviceFor(100, 0.20);
  const Mosfet b = deviceFor(100, 0.285);
  EXPECT_NEAR(a.ioff() / b.ioff(), 10.0, 1e-6);
}

TEST(Ioff, DiblRaisesLeakageAtHigherVds) {
  const Mosfet m = deviceFor(35, 0.11);
  EXPECT_GT(m.ioff(0.6), m.ioff(0.3));
}

TEST(Ioff, DiblSlopeMatchesCoefficient) {
  const Mosfet m = deviceFor(35, 0.11);
  const double eta = m.params().dibl;
  const double swing = m.subthresholdSwing();
  // Ioff(vdd) / Ioff(vdd - dv) = 10^(eta*dv/S).
  const double ratio = m.ioff(0.6) / m.ioff(0.4);
  EXPECT_NEAR(ratio, std::pow(10.0, eta * 0.2 / swing), ratio * 1e-6);
}

TEST(Temperature, SwingScalesWithT) {
  MosfetParams p = deviceFor(70, 0.15).params();
  p.temperature = 358.15;  // 85 C
  const Mosfet hot(p);
  EXPECT_NEAR(hot.subthresholdSwing(), 0.085 * 358.15 / 300.0, 1e-6);
}

TEST(Temperature, LeakageGrowsStronglyWithT) {
  MosfetParams p = deviceFor(70, 0.15).params();
  const Mosfet cold(p);
  p.temperature = 358.15;
  const Mosfet hot(p);
  EXPECT_GT(hot.ioff() / cold.ioff(), 2.0);
  EXPECT_LT(hot.ioff() / cold.ioff(), 50.0);
}

TEST(Temperature, DriveDegradesWithT) {
  MosfetParams p = deviceFor(70, 0.15).params();
  const Mosfet cold(p);
  p.temperature = 358.15;
  const Mosfet hot(p);
  // Mobility loss dominates the Vth reduction at high overdrive.
  EXPECT_LT(hot.ion(), cold.ion());
}

TEST(SmoothedOverdrive, MatchesLinearFarAboveThreshold) {
  const Mosfet m = deviceFor(100, 0.22);
  EXPECT_NEAR(m.smoothedOverdrive(1.2, 0.22), 1.2 - 0.22, 1e-4);
}

TEST(SmoothedOverdrive, PositiveBelowThreshold) {
  const Mosfet m = deviceFor(100, 0.22);
  const double v = m.smoothedOverdrive(0.1, 0.22);
  EXPECT_GT(v, 0.0);
  EXPECT_LT(v, 0.05);
}

TEST(SmoothedOverdrive, SubthresholdSlopeIsOneDecadePerSwing) {
  // idsat0 ~ vgt_eff^2 ~ exp(vgt/nvt): deep below threshold, one swing S of
  // Vgs changes the current by ~10x (the smoothing converges to the
  // exponential asymptote from below, so allow ~10 %).
  const Mosfet m = deviceFor(100, 0.30);
  const double s = m.subthresholdSwing();
  const double i1 = m.idsat0(0.30 - 3.0 * s);
  const double i2 = m.idsat0(0.30 - 4.0 * s);
  EXPECT_NEAR(i1 / i2, 10.0, 1.0);
}

TEST(Mobility, DegradesWithGateBias) {
  const Mosfet m = deviceFor(100, 0.22);
  EXPECT_LT(m.mobility(1.2), m.mobility(0.6));
}

TEST(Mobility, ThinnerOxideMeansMoreDegradation) {
  const Mosfet thick = deviceFor(180, 0.28);
  const Mosfet thin = deviceFor(35, 0.10);
  // At the same bias the thin oxide has the higher effective field.
  EXPECT_LT(thin.mobility(0.6), thick.mobility(0.6));
}

TEST(Ion, FirstOrderAgreesWithSelfConsistentWhenRsSmall) {
  MosfetParams p = deviceFor(180, 0.28).params();
  p.rsOhmM = 10.0 * ohm_um;  // tiny degeneration
  const Mosfet m(p);
  EXPECT_NEAR(ionFirstOrder(m, 1.8), m.ionSelfConsistent(1.8),
              0.02 * m.ionSelfConsistent(1.8));
}

TEST(Ion, SourceResistanceReducesCurrent) {
  MosfetParams p = deviceFor(100, 0.22).params();
  const Mosfet withRs(p);
  p.rsOhmM = 0.0;
  const Mosfet noRs(p);
  EXPECT_LT(withRs.ion(), noRs.ion());
}

TEST(Ion, SelfConsistentIsFixedPoint) {
  const Mosfet m = deviceFor(70, 0.15);
  const double i = m.ionSelfConsistent(0.9);
  EXPECT_NEAR(m.idsat0(0.9 - i * m.params().rsOhmM), i, i * 1e-6);
}

TEST(Ion, MonotonicInVgs) {
  const Mosfet m = deviceFor(70, 0.15);
  double prev = 0.0;
  for (double vgs = 0.2; vgs <= 0.9; vgs += 0.1) {
    const double i = m.ionSelfConsistent(vgs);
    EXPECT_GT(i, prev);
    prev = i;
  }
}

TEST(Ion, MonotonicDecreasingInVth) {
  double prev = 1e9;
  for (double vth : {0.05, 0.10, 0.15, 0.20, 0.25}) {
    const double i = deviceFor(70, vth).ion();
    EXPECT_LT(i, prev);
    prev = i;
  }
}

TEST(VthSolver, HitsIonTarget) {
  const auto& node = nodeByFeature(100);
  const double vth = solveVthForIon(node, node.ionTarget);
  const Mosfet m = Mosfet::fromNode(node, vth, node.vdd);
  EXPECT_NEAR(m.ion(), node.ionTarget, node.ionTarget * 1e-6);
}

TEST(VthSolver, MetalGateAllowsHigherVth) {
  // Paper Section 3.1 observation 1: the thinner electrical oxide of a
  // metal gate lets Vth rise while holding Ion, cutting Ioff sharply.
  const auto& node = nodeByFeature(35);
  const double poly = solveVthForIon(node, node.ionTarget);
  const double metal =
      solveVthForIon(node, node.ionTarget, GateStack::Metal);
  EXPECT_GT(metal, poly + 0.02);
  const double ioffPoly = Mosfet::fromNode(node, poly, node.vdd).ioff();
  const double ioffMetal =
      Mosfet::fromNode(node, metal, node.vdd, GateStack::Metal).ioff();
  EXPECT_LT(ioffMetal / ioffPoly, 0.55);  // >= 45 % reduction
}

TEST(VthSolver, HigherVddAllowsHigherVth) {
  // Paper Section 3.1 observation 2 (the 50 nm 0.6 vs 0.7 V case).
  const auto& node = nodeByFeature(50);
  const double at06 = solveVthForIon(node, node.ionTarget);
  const double at07 =
      solveVthForIon(node, node.ionTarget, GateStack::Poly, 0.7);
  EXPECT_GT(at07, at06 + 0.04);
}

TEST(VthSolver, Vdd07CutsIoffNearly7x) {
  const auto& node = nodeByFeature(50);
  const double at06 = solveVthForIon(node, node.ionTarget);
  const double at07 =
      solveVthForIon(node, node.ionTarget, GateStack::Poly, 0.7);
  const double ratio = Mosfet::fromNode(node, at06, node.vdd).ioff() /
                       Mosfet::fromNode(node, at07, node.vdd).ioff();
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 10.0);  // paper: "nearly 7x"
}

TEST(VthSolverChecked, ConvergedDiagnosticsMatchThrowingSolve) {
  const auto& node = nodeByFeature(100);
  const VthSolveResult r = solveVthForIonChecked(node, node.ionTarget);
  EXPECT_TRUE(r.diag.ok());
  EXPECT_GT(r.diag.iterations, 0);
  EXPECT_STREQ(r.diag.kernel, "device/solve_vth");
  EXPECT_DOUBLE_EQ(r.vth, solveVthForIon(node, node.ionTarget));
}

TEST(VthSolverChecked, NanTargetReportsNanDetected) {
  const auto& node = nodeByFeature(100);
  obs::MetricsRegistry::instance().reset();
  const bool wasEnabled = obs::enabled();
  obs::setEnabled(true);
  const VthSolveResult r =
      solveVthForIonChecked(node, std::nan(""));
  obs::setEnabled(wasEnabled);
  EXPECT_EQ(r.diag.status, util::SolverStatus::NanDetected);
  EXPECT_TRUE(std::isnan(r.vth));
  EXPECT_EQ(obs::MetricsRegistry::instance()
                .counter("device/vth_solve_nonconverged")
                .value(),
            1);
  // The throwing wrapper surfaces the same failure as the historical
  // exception type instead of returning the NaN.
  EXPECT_THROW(solveVthForIon(node, std::nan("")), std::invalid_argument);
}

TEST(VthSolverChecked, NonFiniteVddReportsNanDetected) {
  const auto& node = nodeByFeature(100);
  const VthSolveResult r = solveVthForIonChecked(
      node, node.ionTarget, GateStack::Poly,
      std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.diag.status, util::SolverStatus::NanDetected);
}

TEST(VthSolverChecked, ForcedMaxIterStillReportsUsableResult) {
  const auto& node = nodeByFeature(100);
  VthSolveOptions opt;
  opt.xtol = 0.0;   // only an exact zero can count as converged
  opt.maxIter = 1;  // starve Brent; only the bisection fallback remains
  const VthSolveResult r = solveVthForIonChecked(
      node, node.ionTarget, GateStack::Poly, -1.0, 300.0, opt);
  // Historically this starved solve reported MaxIterations. Since the ion
  // fixed point is solved exactly (kernel/ion_solve.h), ionSelfConsistent
  // is a locally flat monotone map of Vth and the >= 200-step bisection
  // fallback typically lands on a bit-exact root, i.e. Converged with
  // residual 0. Either way the contract under test holds: no throw, an
  // honest status, a reported iteration count, and a usable best iterate.
  EXPECT_TRUE(r.diag.status == util::SolverStatus::Converged ||
              r.diag.status == util::SolverStatus::MaxIterations);
  EXPECT_GT(r.diag.iterations, 0);
  EXPECT_TRUE(std::isfinite(r.vth));
  EXPECT_NEAR(r.vth, solveVthForIon(node, node.ionTarget), 0.05);
}

TEST(VthSolverChecked, UnreachableTargetReportsBracketFailure) {
  // Ion is non-negative at every Vth, so a negative target can never
  // bracket — not even after the wide-bracket retry.
  const auto& node = nodeByFeature(100);
  const VthSolveResult r = solveVthForIonChecked(node, -1.0);
  EXPECT_EQ(r.diag.status, util::SolverStatus::BracketFailure);
  EXPECT_THROW(solveVthForIon(node, -1.0), std::invalid_argument);
}

TEST(Validation, RejectsBadParams) {
  MosfetParams p;
  p.toxPhysical = -1.0;
  EXPECT_THROW(Mosfet{p}, std::invalid_argument);
  p = MosfetParams{};
  p.leff = 0.0;
  EXPECT_THROW(Mosfet{p}, std::invalid_argument);
  p = MosfetParams{};
  p.temperature = 0.0;
  EXPECT_THROW(Mosfet{p}, std::invalid_argument);
}

// ---------------------------------------------------------------- sweeps

/// The calibration property: the solved Vth tracks the paper's Table 2 row
/// within 35 mV at every node.
class Table2VthSweep
    : public ::testing::TestWithParam<std::pair<int, double>> {};

TEST_P(Table2VthSweep, VthWithin35mVOfPaper) {
  const auto [feature, paperVth] = GetParam();
  const auto& node = nodeByFeature(feature);
  const double vth = solveVthForIon(node, node.ionTarget);
  EXPECT_NEAR(vth, paperVth, 0.035) << feature << " nm";
}

INSTANTIATE_TEST_SUITE_P(
    AllNodes, Table2VthSweep,
    ::testing::Values(std::pair{180, 0.30}, std::pair{130, 0.29},
                      std::pair{100, 0.22}, std::pair{70, 0.14},
                      std::pair{50, 0.04}, std::pair{35, 0.11}));

/// Ion target is achievable at every node (solver converges, Vth sane).
class NodeSweep : public ::testing::TestWithParam<int> {};

TEST_P(NodeSweep, SolverConvergesWithSaneVth) {
  const auto& node = nodeByFeature(GetParam());
  const double vth = solveVthForIon(node, node.ionTarget);
  EXPECT_GT(vth, -0.1);
  EXPECT_LT(vth, 0.5);
}

TEST_P(NodeSweep, IoffPositiveAndFinite) {
  const auto& node = nodeByFeature(GetParam());
  const double vth = solveVthForIon(node, node.ionTarget);
  const double ioff = Mosfet::fromNode(node, vth, node.vdd).ioff();
  EXPECT_GT(ioff, 0.0);
  EXPECT_TRUE(std::isfinite(ioff));
}

TEST_P(NodeSweep, FirstOrderRsCorrectionBracketsSelfConsistent) {
  // The first-order expansion always under-predicts relative to the
  // self-consistent solve (second-order term is positive) but stays within
  // 25 % at roadmap conditions.
  const auto& node = nodeByFeature(GetParam());
  const double vth = solveVthForIon(node, node.ionTarget);
  const Mosfet m = Mosfet::fromNode(node, vth, node.vdd);
  const double first = ionFirstOrder(m, node.vdd);
  const double self = m.ionSelfConsistent(node.vdd);
  EXPECT_LE(first, self * 1.001);
  EXPECT_GT(first, 0.6 * self);
}

INSTANTIATE_TEST_SUITE_P(AllNodes, NodeSweep,
                         ::testing::Values(180, 130, 100, 70, 50, 35));

}  // namespace
}  // namespace nano::device
