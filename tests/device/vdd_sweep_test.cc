// Operating-supply sweeps of the device model: the properties Figures 3-4
// depend on, checked as invariants across nodes and supplies rather than
// at single points.
#include <gtest/gtest.h>

#include <cmath>

#include "device/mosfet.h"
#include "util/numeric.h"

namespace nano::device {
namespace {

Mosfet referenceDevice(int feature) {
  const auto& node = tech::nodeByFeature(feature);
  return Mosfet::fromNode(node,
                          solveVthForIon(node, node.ionTarget), node.vdd);
}

class VddSweep : public ::testing::TestWithParam<int> {};

TEST_P(VddSweep, IonMonotoneInOperatingSupply) {
  const Mosfet dev = referenceDevice(GetParam());
  const double vdd0 = dev.params().vddReference;
  double prev = 0.0;
  for (double v : util::linspace(0.3 * vdd0, vdd0, 8)) {
    const double i = dev.ionSelfConsistent(v, v);
    EXPECT_GT(i, prev) << v;
    prev = i;
  }
}

TEST_P(VddSweep, DelayCurveMonotoneAndConvex) {
  // delay ~ C*V/I(V): falls as V rises, with diminishing returns (the
  // convex fan of Figure 3).
  const Mosfet dev = referenceDevice(GetParam());
  const double vdd0 = dev.params().vddReference;
  const auto vs = util::linspace(0.4 * vdd0, vdd0, 6);
  std::vector<double> delay;
  for (double v : vs) delay.push_back(v / dev.ionSelfConsistent(v, v));
  for (std::size_t i = 1; i < delay.size(); ++i) {
    EXPECT_GT(delay[i - 1], delay[i]) << vs[i];
  }
  // Convexity: successive improvements shrink.
  for (std::size_t i = 2; i < delay.size(); ++i) {
    EXPECT_GT(delay[i - 2] - delay[i - 1], delay[i - 1] - delay[i]) << vs[i];
  }
}

TEST_P(VddSweep, IoffFallsWithSupplyAtFixedVth) {
  // DIBL: the Figure-4 "static power decays roughly quadratically with
  // Vdd" mechanism — Ioff itself drops as Vds drops.
  const Mosfet dev = referenceDevice(GetParam());
  const double vdd0 = dev.params().vddReference;
  double prev = 1e9;
  for (double v : util::linspace(vdd0, 0.3 * vdd0, 6)) {
    const double ioff = dev.ioff(v);
    EXPECT_LT(ioff, prev) << v;
    prev = ioff;
  }
}

TEST_P(VddSweep, PstatExponentBetweenOneAndThree) {
  // Pstat = V * Ioff(V): with DIBL the paper calls the decay "roughly
  // quadratic" — the fitted exponent must land between linear and cubic.
  const Mosfet dev = referenceDevice(GetParam());
  const double vdd0 = dev.params().vddReference;
  const double vLo = 0.4 * vdd0;
  const double pHi = vdd0 * dev.ioff(vdd0);
  const double pLo = vLo * dev.ioff(vLo);
  const double exponent = std::log(pHi / pLo) / std::log(vdd0 / vLo);
  EXPECT_GT(exponent, 1.0) << exponent;
  EXPECT_LT(exponent, 3.0) << exponent;
}

TEST_P(VddSweep, SelfConsistentIonNeverExceedsUndegenerated) {
  const Mosfet dev = referenceDevice(GetParam());
  const double vdd0 = dev.params().vddReference;
  for (double v : util::linspace(0.4 * vdd0, vdd0, 5)) {
    EXPECT_LE(dev.ionSelfConsistent(v, v), dev.idsat0(v, v) * (1 + 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(AllNodes, VddSweep,
                         ::testing::Values(180, 130, 100, 70, 50, 35));

TEST(VddSweepExtra, LoweringVthRestoresLowVddDrive) {
  // The Figure 3 lever at every node: at 1/2 the nominal supply, a 100 mV
  // Vth cut recovers a large drive fraction.
  for (int f : {70, 50, 35}) {
    const auto& node = tech::nodeByFeature(f);
    const double vth = solveVthForIon(node, node.ionTarget);
    const Mosfet nominal = Mosfet::fromNode(node, vth, node.vdd);
    const Mosfet lowered = Mosfet::fromNode(node, vth - 0.1, node.vdd);
    const double v = 0.5 * node.vdd;
    EXPECT_GT(lowered.ionSelfConsistent(v, v),
              1.3 * nominal.ionSelfConsistent(v, v))
        << f;
  }
}

}  // namespace
}  // namespace nano::device
