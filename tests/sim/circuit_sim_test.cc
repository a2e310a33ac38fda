#include "sim/circuit_sim.h"

#include <gtest/gtest.h>

#include <cmath>

#include "obs/obs.h"
#include "util/units.h"

namespace nano::sim {
namespace {

using namespace nano::units;

TEST(Waveform, DcConstant) {
  const Waveform w = Waveform::dc(1.5);
  EXPECT_DOUBLE_EQ(w.at(0.0), 1.5);
  EXPECT_DOUBLE_EQ(w.at(1e9), 1.5);
}

TEST(Waveform, PulseShape) {
  const Waveform w = Waveform::pulse(0.0, 1.0, 1e-9, 1e-9, 2e-9, 1e-9);
  EXPECT_DOUBLE_EQ(w.at(0.5e-9), 0.0);
  EXPECT_NEAR(w.at(1.5e-9), 0.5, 1e-9);  // mid-rise
  EXPECT_DOUBLE_EQ(w.at(3e-9), 1.0);     // plateau
  EXPECT_NEAR(w.at(4.5e-9), 0.5, 1e-9);  // mid-fall
  EXPECT_DOUBLE_EQ(w.at(6e-9), 0.0);
}

TEST(Waveform, PulsePeriodic) {
  const Waveform w = Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-9, 1e-12, 2e-9);
  EXPECT_DOUBLE_EQ(w.at(0.5e-9), 1.0);
  EXPECT_DOUBLE_EQ(w.at(1.5e-9), 0.0);
  EXPECT_DOUBLE_EQ(w.at(2.5e-9), 1.0);
}

TEST(Waveform, PwlInterpolates) {
  const Waveform w = Waveform::pwl({{0.0, 0.0}, {1e-9, 1.0}, {2e-9, 0.5}});
  EXPECT_DOUBLE_EQ(w.at(-1.0), 0.0);
  EXPECT_NEAR(w.at(0.5e-9), 0.5, 1e-9);
  EXPECT_NEAR(w.at(1.5e-9), 0.75, 1e-9);
  EXPECT_DOUBLE_EQ(w.at(5e-9), 0.5);
  EXPECT_THROW(Waveform::pwl({}), std::invalid_argument);
}

TEST(Simulator, ResistorDividerDc) {
  Circuit ckt;
  const int top = ckt.node();
  const int mid = ckt.node();
  ckt.add(VoltageSource{top, 0, Waveform::dc(2.0)});
  ckt.add(Resistor{top, mid, 1000.0});
  ckt.add(Resistor{mid, 0, 1000.0});
  Simulator sim(ckt);
  const auto v = sim.dcOperatingPoint();
  EXPECT_NEAR(v[static_cast<std::size_t>(mid)], 1.0, 1e-6);
}

TEST(Simulator, RcStepResponse) {
  Circuit ckt;
  const int in = ckt.node();
  const int out = ckt.node();
  ckt.add(VoltageSource{in, 0, Waveform::pulse(0, 1.0, 0.1e-9, 1e-12, 1.0, 1e-12)});
  ckt.add(Resistor{in, out, 1000.0});
  ckt.add(Capacitor{out, 0, 1 * pF});
  Simulator sim(ckt);
  const TransientResult tr = sim.transient(5 * ns, 5 * ps);
  // 50 % at delay + 0.693*tau = 0.1 + 0.693 ns.
  EXPECT_NEAR(tr.crossingTime(out, 0.5, true), 0.793e-9, 0.01e-9);
  // 90 % at delay + 2.303*tau.
  EXPECT_NEAR(tr.crossingTime(out, 0.9, true), 0.1e-9 + 2.303e-9, 0.03e-9);
}

TEST(Simulator, CurrentSourceIntoCapIntegrates) {
  Circuit ckt;
  const int n = ckt.node();
  ckt.add(CurrentSource{0, n, Waveform::dc(1 * uA)});
  ckt.add(Capacitor{n, 0, 1 * pF});
  // Needs a DC path for the operating point: large bleed resistor.
  ckt.add(Resistor{n, 0, 1e12});
  Simulator sim(ckt);
  const TransientResult tr = sim.transient(1 * ns, 1 * ps);
  // dV/dt = I/C = 1e6 V/s -> 1 mV at 1 ns... wait: 1 uA / 1 pF = 1e6 V/s,
  // so 1 mV/ns... the initial DC point already sits at I*R; use the delta.
  const double v0 = tr.voltages.front()[static_cast<std::size_t>(n)];
  const double v1 = tr.voltages.back()[static_cast<std::size_t>(n)];
  EXPECT_NEAR(v1 - v0, 1e-3, 2e-4);
}

TEST(Simulator, InverterDcTransfersLogicLevels) {
  const auto& node = tech::nodeByFeature(100);
  const double vth = device::solveVthForIon(node, node.ionTarget);
  auto model = std::make_shared<device::Mosfet>(
      device::Mosfet::fromNode(node, vth, node.vdd));
  Circuit ckt;
  const int vdd = ckt.node();
  const int in = ckt.node();
  const int out = ckt.node();
  ckt.add(VoltageSource{vdd, 0, Waveform::dc(node.vdd)});
  ckt.add(VoltageSource{in, 0, Waveform::dc(0.0)});
  ckt.addInverter(in, out, vdd, model, 0.4e-6, 0.8e-6);
  Simulator sim(ckt);
  const auto lo = sim.dcOperatingPoint();
  EXPECT_NEAR(lo[static_cast<std::size_t>(out)], node.vdd, 0.02);

  Circuit ckt2;
  const int vdd2 = ckt2.node();
  const int in2 = ckt2.node();
  const int out2 = ckt2.node();
  ckt2.add(VoltageSource{vdd2, 0, Waveform::dc(node.vdd)});
  ckt2.add(VoltageSource{in2, 0, Waveform::dc(node.vdd)});
  ckt2.addInverter(in2, out2, vdd2, model, 0.4e-6, 0.8e-6);
  Simulator sim2(ckt2);
  const auto hi = sim2.dcOperatingPoint();
  EXPECT_NEAR(hi[static_cast<std::size_t>(out2)], 0.0, 0.02);
}

TEST(Simulator, TransientRejectsBadArgs) {
  Circuit ckt;
  const int n = ckt.node();
  ckt.add(Resistor{n, 0, 1.0});
  Simulator sim(ckt);
  EXPECT_THROW(sim.transient(0.0, 1e-12), std::invalid_argument);
  EXPECT_THROW(sim.transient(1e-9, 0.0), std::invalid_argument);
}

TEST(Circuit, AddMosfetWithoutModelThrows) {
  Circuit ckt;
  MosfetElement m;
  m.model = nullptr;
  EXPECT_THROW(ckt.add(m), std::invalid_argument);
}

Circuit midRailInverter(const tech::TechNode& node) {
  const double vth = device::solveVthForIon(node, node.ionTarget);
  auto model = std::make_shared<device::Mosfet>(
      device::Mosfet::fromNode(node, vth, node.vdd));
  Circuit ckt;
  const int vdd = ckt.node();
  const int in = ckt.node();
  const int out = ckt.node();
  ckt.add(VoltageSource{vdd, 0, Waveform::dc(node.vdd)});
  ckt.add(VoltageSource{in, 0, Waveform::dc(0.5 * node.vdd)});
  ckt.addInverter(in, out, vdd, model, 0.4e-6, 0.8e-6);
  return ckt;
}

TEST(Simulator, NewtonExhaustionReportsDiagnostics) {
  // One Newton iteration on a nonlinear circuit: the damped update (0.3 V
  // clamp) cannot reach the 1e-7 V tolerance, so the solve must exit with
  // a MaxIterations diagnostic instead of a silent bad answer.
  SimOptions opt;
  opt.maxNewton = 1;
  // The simulator keeps a pointer to the circuit: it must outlive the sim.
  const Circuit ckt = midRailInverter(tech::nodeByFeature(100));
  Simulator sim(ckt, opt);

  obs::MetricsRegistry::instance().reset();
  const bool wasEnabled = obs::enabled();
  obs::setEnabled(true);
  sim.dcOperatingPoint();
  obs::setEnabled(wasEnabled);

  const util::Diagnostics& d = sim.lastSolveDiagnostics();
  EXPECT_EQ(d.status, util::SolverStatus::MaxIterations);
  EXPECT_EQ(d.iterations, 1);
  EXPECT_GE(d.residual, opt.vTolerance);
  EXPECT_STREQ(d.kernel, "sim/newton");
  EXPECT_EQ(obs::MetricsRegistry::instance()
                .counter("sim/newton_nonconverged")
                .value(),
            1);
}

TEST(Simulator, TransientCountsNonconvergedSteps) {
  SimOptions opt;
  opt.maxNewton = 1;
  const Circuit ckt = midRailInverter(tech::nodeByFeature(100));
  Simulator sim(ckt, opt);
  const TransientResult tr = sim.transient(10 * ps, 1 * ps);
  EXPECT_GT(tr.nonconvergedSteps, 0);
  EXPECT_EQ(tr.worstStep.status, util::SolverStatus::MaxIterations);
  EXPECT_STREQ(tr.worstStep.kernel, "sim/newton");
  // Every recorded waveform sample stays finite: the best iterate is kept,
  // never a poisoned one.
  for (const auto& step : tr.voltages) {
    for (double v : step) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Simulator, NanSourceRecoversPreviousState) {
  Circuit ckt;
  const int n = ckt.node();
  ckt.add(VoltageSource{n, 0, Waveform::dc(std::nan(""))});
  ckt.add(Resistor{n, 0, 1000.0});
  Simulator sim(ckt);
  const auto v = sim.dcOperatingPoint();
  EXPECT_EQ(sim.lastSolveDiagnostics().status,
            util::SolverStatus::NanDetected);
  // Per-point recovery: the previous (zero) state survives, the NaN does
  // not leak into the reported voltages.
  EXPECT_TRUE(std::isfinite(v[static_cast<std::size_t>(n)]));
}

TEST(Simulator, ConvergedSolveReportsCleanDiagnostics) {
  Circuit ckt;
  const int top = ckt.node();
  const int mid = ckt.node();
  ckt.add(VoltageSource{top, 0, Waveform::dc(2.0)});
  ckt.add(Resistor{top, mid, 1000.0});
  ckt.add(Resistor{mid, 0, 1000.0});
  Simulator sim(ckt);
  sim.dcOperatingPoint();
  const util::Diagnostics& d = sim.lastSolveDiagnostics();
  EXPECT_TRUE(d.ok());
  EXPECT_GT(d.iterations, 0);
  EXPECT_LT(d.residual, 1e-7);
}

TEST(TransientResult, CrossingDetectsDirection) {
  TransientResult tr;
  tr.time = {0.0, 1.0, 2.0, 3.0};
  tr.voltages = {{0.0, 0.0}, {0.0, 1.0}, {0.0, 0.5}, {0.0, 0.0}};
  EXPECT_NEAR(tr.crossingTime(1, 0.5, true), 0.5, 1e-12);
  EXPECT_NEAR(tr.crossingTime(1, 0.4, false, 1.0), 2.2, 1e-12);
  EXPECT_DOUBLE_EQ(tr.crossingTime(1, 2.0, true), -1.0);
}

TEST(TransientResult, AtInterpolates) {
  TransientResult tr;
  tr.time = {0.0, 1.0};
  tr.voltages = {{0.0, 0.0}, {0.0, 2.0}};
  EXPECT_NEAR(tr.at(1, 0.5), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(tr.at(1, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(tr.at(1, 5.0), 2.0);
}

}  // namespace
}  // namespace nano::sim
