#include "device/variation.h"

#include <gtest/gtest.h>

#include <cmath>

namespace nano::device {
namespace {

TEST(VthSigma, PelgromScaling) {
  const auto& node = tech::nodeByFeature(100);
  const double s1 = vthSigma(node, 1e-6);
  const double s2 = vthSigma(node, 4e-6);
  EXPECT_NEAR(s1 / s2, 2.0, 1e-9);  // sigma ~ 1/sqrt(W)
  EXPECT_THROW(vthSigma(node, 0.0), std::invalid_argument);
}

TEST(VthSigma, GrowsDownTheRoadmap) {
  // Smaller devices at fixed W/L multiples: a minimum-width device's
  // sigma grows as area shrinks — the paper's variability worry.
  double prev = 0.0;
  for (int f : tech::roadmapFeatures()) {
    const auto& node = tech::nodeByFeature(f);
    const double wMin = 2.0 * node.featureNm * 1e-9;
    const double s = vthSigma(node, wMin);
    EXPECT_GT(s, prev) << f;
    prev = s;
  }
  // A minimum 35 nm device: tens of mV of sigma.
  EXPECT_GT(prev, 0.02);
  EXPECT_LT(prev, 0.2);
}

TEST(MonteCarlo, MatchesClosedFormMean) {
  const auto& node = tech::nodeByFeature(70);
  const double vth = solveVthForIon(node, node.ionTarget);
  util::Rng rng(2024);
  const double width = 4.0 * node.featureNm * 1e-9;
  const LeakageSpread spread =
      sampleLeakageSpread(node, vth, width, rng, 40000);
  // Closed form of a lognormal Ioff with Vth ~ N(vth, sigma^2) through
  // Eq. (4): exp(0.5 * (sigma*ln10/S)^2).
  const Mosfet dev = Mosfet::fromNode(node, vth);
  const double s =
      spread.sigmaVth * std::log(10.0) / dev.subthresholdSwing();
  const double expected = std::exp(0.5 * s * s);
  EXPECT_NEAR(spread.meanAmplification, expected, 0.1 * expected);
}

TEST(MonteCarlo, MeanAboveMedianLognormal) {
  // The headline: variability multiplies MEAN leakage (p95 far above 1,
  // mean > 1 even though the median draw is ~nominal).
  const auto& node = tech::nodeByFeature(35);
  const double vth = solveVthForIon(node, node.ionTarget);
  util::Rng rng(7);
  const double width = 2.0 * node.featureNm * 1e-9;  // minimum device
  const LeakageSpread spread = sampleLeakageSpread(node, vth, width, rng);
  EXPECT_GT(spread.meanAmplification, 1.3);
  EXPECT_GT(spread.p95Amplification, spread.meanAmplification);
}

TEST(MonteCarlo, WiderDevicesTighter) {
  const auto& node = tech::nodeByFeature(50);
  const double vth = solveVthForIon(node, node.ionTarget);
  util::Rng rngA(5), rngB(5);
  const LeakageSpread narrow =
      sampleLeakageSpread(node, vth, 1e-7, rngA, 20000);
  const LeakageSpread wide =
      sampleLeakageSpread(node, vth, 1.6e-6, rngB, 20000);
  EXPECT_GT(narrow.meanAmplification, wide.meanAmplification);
}

TEST(MonteCarlo, Deterministic) {
  const auto& node = tech::nodeByFeature(50);
  const double vth = solveVthForIon(node, node.ionTarget);
  util::Rng a(11), b(11);
  const auto ra = sampleLeakageSpread(node, vth, 2e-7, a, 5000);
  const auto rb = sampleLeakageSpread(node, vth, 2e-7, b, 5000);
  EXPECT_DOUBLE_EQ(ra.meanAmplification, rb.meanAmplification);
}

TEST(VthMargin, ThreeSigmaDefault) {
  EXPECT_DOUBLE_EQ(vthMarginForSigma(0.02), 0.06);
  EXPECT_THROW(vthMarginForSigma(-0.01), std::invalid_argument);
}

}  // namespace
}  // namespace nano::device
