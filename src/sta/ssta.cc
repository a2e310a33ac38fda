#include "sta/ssta.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "device/variation.h"

namespace nano::sta {

namespace {

constexpr double kInvSqrt2Pi = 0.3989422804014327;

double normPdf(double x) { return kInvSqrt2Pi * std::exp(-0.5 * x * x); }
double normCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Clark's approximation of max(X, Y) for independent Gaussians.
void clarkMax(double mu1, double var1, double mu2, double var2, double* mu,
              double* var) {
  const double a2 = var1 + var2;
  if (a2 < 1e-40) {
    *mu = std::max(mu1, mu2);
    *var = 0.0;
    return;
  }
  const double a = std::sqrt(a2);
  const double alpha = (mu1 - mu2) / a;
  const double phi = normPdf(alpha);
  const double cdf = normCdf(alpha);
  *mu = mu1 * cdf + mu2 * (1.0 - cdf) + a * phi;
  const double second = (var1 + mu1 * mu1) * cdf + (var2 + mu2 * mu2) * (1.0 - cdf) +
                        (mu1 + mu2) * a * phi;
  *var = std::max(second - (*mu) * (*mu), 0.0);
}

}  // namespace

StatTiming analyzeStatistical(const circuit::Netlist& netlist,
                              const tech::TechNode& node,
                              const SstaOptions& options) {
  // Positive form so a NaN sensitivity is rejected instead of silently
  // poisoning every sigma downstream.
  if (!(options.delaySensitivity >= 0)) {
    throw std::invalid_argument(
        "analyzeStatistical: sensitivity must be finite and >= 0");
  }
  const int n = netlist.nodeCount();
  StatTiming r;
  r.mean.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<double> var(static_cast<std::size_t>(n), 0.0);

  const double unitWidth = options.unitDeviceWidth > 0
                               ? options.unitDeviceWidth
                               : 2.0 * node.featureNm * 1e-9;

  for (int i = 0; i < n; ++i) {
    const auto& nd = netlist.node(i);
    if (nd.kind != circuit::Netlist::NodeKind::Gate) continue;

    // MAX over fanins (Clark, pairwise).
    double mu = 0.0, v = 0.0;
    bool first = true;
    for (int f : nd.fanins) {
      const double fMu = r.mean[static_cast<std::size_t>(f)];
      const double fVar = var[static_cast<std::size_t>(f)];
      if (first) {
        mu = fMu;
        v = fVar;
        first = false;
      } else {
        clarkMax(mu, v, fMu, fVar, &mu, &v);
      }
    }

    // Gate contribution: mean delay plus Vth-mismatch sigma. Wider (higher
    // drive) gates average out mismatch: sigma ~ 1/sqrt(drive).
    const double d = nd.cell.delay(netlist.loadCap(i));
    const double width = unitWidth * std::max(nd.cell.drive, 0.1);
    const double sVth = device::vthSigma(node, width, options.pelgromAvt);
    const double sDelay = d * options.delaySensitivity * sVth;
    mu += d;
    v += sDelay * sDelay;

    r.mean[static_cast<std::size_t>(i)] = mu;
    var[static_cast<std::size_t>(i)] = v;
  }

  r.sigma.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    r.sigma[static_cast<std::size_t>(i)] =
        std::sqrt(var[static_cast<std::size_t>(i)]);
  }
  for (int id : netlist.outputs()) {
    if (r.mean[static_cast<std::size_t>(id)] >= r.criticalMean) {
      r.criticalMean = r.mean[static_cast<std::size_t>(id)];
      r.criticalSigma = r.sigma[static_cast<std::size_t>(id)];
    }
  }
  return r;
}

double timingYield(const circuit::Netlist& netlist, const StatTiming& timing,
                   double clockPeriod) {
  double yield = 1.0;
  for (int id : netlist.outputs()) {
    const double mu = timing.mean[static_cast<std::size_t>(id)];
    const double sg = timing.sigma[static_cast<std::size_t>(id)];
    if (sg <= 0.0) {
      if (mu > clockPeriod) return 0.0;
      continue;
    }
    yield *= normCdf((clockPeriod - mu) / sg);
  }
  return yield;
}

}  // namespace nano::sta
