#include "power/power_model.h"

#include <gtest/gtest.h>

#include "circuit/generator.h"
#include "support/inverter_chain.h"
#include "util/units.h"

namespace nano::power {
namespace {

using namespace nano::units;
using circuit::CellFunction;
using circuit::VddDomain;
using circuit::VthClass;

struct Fixture {
  circuit::Library lib{tech::nodeByFeature(100)};
};

TEST(PowerModel, ChainPowerMatchesHandRollup) {
  Fixture f;
  const auto nl = circuit::inverterChain(f.lib, 3);
  const ActivityResult act = propagateActivity(nl, 0.5, 0.2);
  const double freq = 1 * GHz;
  const PowerBreakdown p = computePower(nl, act, freq);

  double dyn = 0.0, leak = 0.0;
  for (int g : nl.gateIds()) {
    const auto& cell = nl.node(g).cell;
    dyn += act.activity[static_cast<std::size_t>(g)] *
           cell.switchingEnergy(nl.loadCap(g)) * freq;
    leak += cell.leakage;
  }
  EXPECT_NEAR(p.dynamic, dyn, 1e-12 * dyn);
  EXPECT_NEAR(p.leakage, leak, 1e-12 * leak);
  EXPECT_DOUBLE_EQ(p.levelConverter, 0.0);
}

TEST(PowerModel, LinearInFrequency) {
  Fixture f;
  const auto nl = circuit::inverterChain(f.lib, 5);
  const PowerBreakdown p1 = computePower(nl, 1 * GHz);
  const PowerBreakdown p2 = computePower(nl, 2 * GHz);
  EXPECT_NEAR(p2.dynamic, 2.0 * p1.dynamic, 1e-9 * p1.dynamic);
  EXPECT_NEAR(p2.leakage, p1.leakage, 1e-15);
}

TEST(PowerModel, LevelConvertersBucketedSeparately) {
  Fixture f;
  circuit::Netlist nl;
  const int a = nl.addInput();
  const auto low =
      f.lib.pick(CellFunction::Inv, 1.0, VthClass::Low, VddDomain::Low);
  const auto lc = f.lib.pick(CellFunction::LevelConverter, 1.0, VthClass::Low,
                             VddDomain::High);
  const int g = nl.addGate(low, {a});
  const int c = nl.addGate(lc, {g});
  nl.markOutput(c);
  const PowerBreakdown p = computePower(nl, 1 * GHz);
  EXPECT_GT(p.levelConverter, 0.0);
  EXPECT_GT(p.dynamic, 0.0);
  EXPECT_NEAR(p.total(), p.dynamic + p.leakage + p.levelConverter, 1e-18);
}

TEST(PowerModel, LowVddGatesBurnLess) {
  Fixture f;
  auto build = [&](VddDomain dom) {
    circuit::Netlist nl;
    const int a = nl.addInput();
    const auto inv = f.lib.pick(CellFunction::Inv, 1.0, VthClass::Low, dom);
    int prev = a;
    for (int i = 0; i < 4; ++i) prev = nl.addGate(inv, {prev});
    nl.markOutput(prev);
    return computePower(nl, 1 * GHz);
  };
  const PowerBreakdown hi = build(VddDomain::High);
  const PowerBreakdown lo = build(VddDomain::Low);
  // Dynamic scales ~ Vdd^2 = 0.42x (plus slight cap differences).
  EXPECT_LT(lo.dynamic, 0.5 * hi.dynamic);
  EXPECT_LT(lo.leakage, hi.leakage);
}

TEST(PowerModel, HighVthCutsLeakageOnly) {
  Fixture f;
  auto build = [&](VthClass vth) {
    circuit::Netlist nl;
    const int a = nl.addInput();
    const auto inv = f.lib.pick(CellFunction::Inv, 1.0, vth, VddDomain::High);
    int prev = a;
    for (int i = 0; i < 4; ++i) prev = nl.addGate(inv, {prev});
    nl.markOutput(prev);
    return computePower(nl, 1 * GHz);
  };
  const PowerBreakdown lvt = build(VthClass::Low);
  const PowerBreakdown hvt = build(VthClass::High);
  EXPECT_LT(hvt.leakage, 0.2 * lvt.leakage);
  EXPECT_NEAR(hvt.dynamic, lvt.dynamic, 0.05 * lvt.dynamic);
}

TEST(PowerModel, GateDynamicPowerConsistent) {
  Fixture f;
  util::Rng rng(31);
  circuit::GeneratorConfig cfg;
  cfg.gates = 200;
  const auto nl = circuit::randomLogic(f.lib, cfg, rng);
  const ActivityResult act = propagateActivity(nl);
  const double freq = 2 * GHz;
  double sum = 0.0;
  for (int g : nl.gateIds()) sum += gateDynamicPower(nl, act, g, freq);
  const PowerBreakdown p = computePower(nl, act, freq);
  EXPECT_NEAR(sum, p.dynamic + p.levelConverter, 1e-9 * sum);
}

TEST(PowerModel, LeakageShareGrowsAtLeakyNodes) {
  // The Figure 1 story at netlist level: leakage fraction at 50 nm far
  // exceeds that at 180 nm for the same circuit shape.
  auto leakFraction = [](int feature) {
    circuit::Library lib(tech::nodeByFeature(feature));
    util::Rng rng(77);
    circuit::GeneratorConfig cfg;
    cfg.gates = 300;
    const auto nl = circuit::randomLogic(lib, cfg, rng);
    const auto p =
        computePower(nl, tech::nodeByFeature(feature).clockLocal, 0.1);
    return p.leakage / p.total();
  };
  EXPECT_GT(leakFraction(50), 10.0 * leakFraction(180));
}

}  // namespace
}  // namespace nano::power
