// Cross-validation: the waveform-level simulator against the analytic
// models used everywhere else (gate delay, Elmore wire delay, low-swing
// sensing). This is the evidence that the closed-form models the paper's
// analysis rests on are consistent with circuit-level behavior.
#include <gtest/gtest.h>

#include "device/gate_model.h"
#include "support/elmore.h"
#include "sim/circuit_sim.h"
#include "util/units.h"

namespace nano {
namespace {

using namespace nano::units;

struct InverterChainFixture {
  const tech::TechNode& node = tech::nodeByFeature(100);
  double vth = device::solveVthForIon(node, node.ionTarget);
  std::shared_ptr<device::Mosfet> model =
      std::make_shared<device::Mosfet>(
          device::Mosfet::fromNode(node, vth, node.vdd));
  device::InverterModel inv{node, vth, node.vdd};
};

TEST(Validation, InverterChainDelayWithinTwoXOfAnalyticModel) {
  InverterChainFixture f;
  sim::Circuit ckt;
  const int vdd = ckt.node();
  ckt.add(sim::VoltageSource{vdd, 0, sim::Waveform::dc(f.node.vdd)});
  const int in = ckt.node();
  ckt.add(sim::VoltageSource{
      in, 0, sim::Waveform::pulse(0, f.node.vdd, 20 * ps, 5 * ps, 1.0, 5 * ps)});
  std::vector<int> outs;
  int prev = in;
  for (int i = 0; i < 6; ++i) {
    const int out = ckt.node();
    ckt.addInverter(prev, out, vdd, f.model, f.inv.wn(), f.inv.wp());
    outs.push_back(out);
    prev = out;
  }
  sim::Simulator sim(ckt);
  const auto tr = sim.transient(400 * ps, 0.25 * ps);
  const double mid = 0.5 * f.node.vdd;
  // Average stage-pair delay between stages 2 and 4 (same edge polarity).
  const double t2 = tr.crossingTime(outs[2], mid, false);
  const double t4 = tr.crossingTime(outs[4], mid, false);
  ASSERT_GT(t2, 0.0);
  ASSERT_GT(t4, 0.0);
  const double simStage = (t4 - t2) / 2.0;
  const double modelStage = f.inv.delay(f.inv.inputCap());
  EXPECT_GT(simStage, 0.4 * modelStage);
  EXPECT_LT(simStage, 2.0 * modelStage);
}

TEST(Validation, SimulatedRcLineMatchesElmoreEstimate) {
  interconnect::WireRc rc;
  rc.resistancePerM = 1e5;
  rc.groundCapPerM = 2e-10;
  rc.couplingCapPerM = 0.0;
  const double length = 2 * mm;
  const int segments = 20;

  sim::Circuit ckt;
  const int in = ckt.node();
  ckt.add(sim::VoltageSource{
      in, 0, sim::Waveform::pulse(0, 1.0, 10 * ps, 1 * ps, 1.0, 1 * ps)});
  const double rSeg = rc.resistancePerM * length / segments;
  const double cSeg = rc.totalCapPerM() * length / segments;
  int prev = in;
  int far = in;
  for (int i = 0; i < segments; ++i) {
    const int next = ckt.node();
    ckt.add(sim::Resistor{prev, next, rSeg});
    ckt.add(sim::Capacitor{next, 0, cSeg});
    prev = next;
    far = next;
  }
  sim::Simulator sim(ckt);
  const auto tr = sim.transient(200 * ps, 0.2 * ps);
  const double t50 = tr.crossingTime(far, 0.5, true) - 10 * ps;

  const interconnect::LineTree lt =
      interconnect::buildLine(rc, length, segments);
  const double elmore50 = lt.tree.delay50(lt.farEnd);
  // The 0.693*Elmore fit is a first-order estimate; distributed lines come
  // in somewhat faster. Expect agreement within ~40 %.
  EXPECT_GT(t50, 0.5 * elmore50);
  EXPECT_LT(t50, 1.4 * elmore50);
}

TEST(Validation, LowSwingReceiverThresholdReachedEarly) {
  // The low-swing premise: the far end of a long RC line reaches 10 % of
  // the final value much earlier than 50 % (so a low-swing receiver fires
  // long before full-swing settling).
  interconnect::WireRc rc;
  rc.resistancePerM = 2e5;
  rc.groundCapPerM = 2e-10;
  const double length = 5 * mm;
  const int segments = 25;

  sim::Circuit ckt;
  const int in = ckt.node();
  ckt.add(sim::VoltageSource{
      in, 0, sim::Waveform::pulse(0, 1.0, 10 * ps, 1 * ps, 1.0, 1 * ps)});
  const double rSeg = rc.resistancePerM * length / segments;
  const double cSeg = rc.totalCapPerM() * length / segments;
  int prev = in, far = in;
  for (int i = 0; i < segments; ++i) {
    const int next = ckt.node();
    ckt.add(sim::Resistor{prev, next, rSeg});
    ckt.add(sim::Capacitor{next, 0, cSeg});
    prev = next;
    far = next;
  }
  sim::Simulator sim(ckt);
  const auto tr = sim.transient(2 * ns, 1 * ps);
  const double t10 = tr.crossingTime(far, 0.1, true);
  const double t50 = tr.crossingTime(far, 0.5, true);
  ASSERT_GT(t10, 0.0);
  ASSERT_GT(t50, 0.0);
  EXPECT_LT(t10 - 10 * ps, 0.45 * (t50 - 10 * ps));
}

TEST(Validation, MosfetIonMatchesCompactModelInSimulator) {
  // A MOSFET biased at Vgs = Vds = Vdd through the simulator's DC solve
  // conducts the compact model's Ion.
  InverterChainFixture f;
  sim::Circuit ckt;
  const int vdd = ckt.node();
  const int drain = ckt.node();
  ckt.add(sim::VoltageSource{vdd, 0, sim::Waveform::dc(f.node.vdd)});
  const double rSense = 1.0;  // tiny sense resistor
  ckt.add(sim::Resistor{vdd, drain, rSense});
  sim::MosfetElement m;
  m.drain = drain;
  m.gate = vdd;
  m.source = 0;
  m.width = 1 * um;
  m.model = f.model;
  ckt.add(m);
  sim::Simulator sim(ckt);
  const auto v = sim.dcOperatingPoint();
  const double current =
      (v[static_cast<std::size_t>(vdd)] - v[static_cast<std::size_t>(drain)]) /
      rSense;
  // The simulator's I-V (without Rs degeneration at this ideal bias but
  // with the tanh saturation blend) should sit near idsat0.
  const double expected = f.model->idsat0(f.node.vdd) * 1 * um;
  EXPECT_GT(current, 0.7 * expected);
  EXPECT_LT(current, 1.1 * expected);
}

}  // namespace
}  // namespace nano
