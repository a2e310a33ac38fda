// Vth variability (paper Section 1 lists "increasing Vth fluctuations
// across a large die" among the nanometer challenges). Models random
// dopant / geometry mismatch with the Pelgrom law, sigma(Vth) =
// A_vt / sqrt(W * L), and propagates it through Eq. (4):  leakage is
// lognormal in Vth, so variability *multiplies the mean* — the reason
// worst-case leakage budgets blow up even when the median behaves.
#pragma once

#include "device/mosfet.h"
#include "util/rng.h"

namespace nano::device {

/// Pelgrom matching coefficient, V*m (3 mV*um is a typical planar value).
inline constexpr double kPelgromAvt = 3.0e-9;

/// Sigma of Vth for a device of width `w` and the node's Leff, V.
double vthSigma(const tech::TechNode& node, double width,
                double avt = kPelgromAvt);

/// Monte-Carlo summary of per-device leakage under Vth variation.
struct LeakageSpread {
  double meanAmplification = 0.0;   ///< mean(Ioff) / Ioff(mean Vth)
  double p95Amplification = 0.0;    ///< 95th percentile / nominal
  double sigmaVth = 0.0;            ///< V
  int samples = 0;
};

/// Sample `samples` devices of width `width` at `node`'s solved Vth and
/// summarize the leakage spread. Deterministic given the Rng.
LeakageSpread sampleLeakageSpread(const tech::TechNode& node, double vth,
                                  double width, util::Rng& rng,
                                  int samples = 20000,
                                  double avt = kPelgromAvt);

/// Die-level view: with N devices the worst ones dominate; returns the
/// multiplier on TOTAL die leakage vs the no-variation estimate (equals
/// the mean amplification, by linearity) and the effective "sigma budget"
/// a designer must carry: the Vth margin delta such that
/// Ioff(vth - delta) equals the (1 + k*sigma) population draw.
double vthMarginForSigma(double sigma, double k = 3.0);

}  // namespace nano::device
