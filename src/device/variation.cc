#include "device/variation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/stats.h"

namespace nano::device {

double vthSigma(const tech::TechNode& node, double width, double avt) {
  if (width <= 0) throw std::invalid_argument("vthSigma: width <= 0");
  return avt / std::sqrt(width * node.leff);
}

LeakageSpread sampleLeakageSpread(const tech::TechNode& node, double vth,
                                  double width, util::Rng& rng, int samples,
                                  double avt) {
  if (samples < 2) throw std::invalid_argument("sampleLeakageSpread: samples");
  LeakageSpread out;
  out.sigmaVth = vthSigma(node, width, avt);
  out.samples = samples;

  const Mosfet nominal = Mosfet::fromNode(node, vth);
  const double ioffNominal = nominal.ioff();
  const double swing = nominal.subthresholdSwing();

  std::vector<double> draws;
  draws.reserve(static_cast<std::size_t>(samples));
  double sum = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double dv = rng.normal(0.0, out.sigmaVth);
    // Eq. (4) shift: one decade per swing of Vth.
    const double ioff = ioffNominal * std::pow(10.0, -dv / swing);
    draws.push_back(ioff / ioffNominal);
    sum += ioff / ioffNominal;
  }
  out.meanAmplification = sum / samples;
  out.p95Amplification = util::percentile(draws, 95.0);
  return out;
}

double vthMarginForSigma(double sigma, double k) {
  if (sigma < 0) throw std::invalid_argument("vthMarginForSigma: sigma < 0");
  return k * sigma;
}

}  // namespace nano::device
