// Statistical STA (lite): propagates per-gate delay variability (from Vth
// mismatch via device/variation) through the netlist with Gaussian
// arrival models and Clark's MAX approximation. Quantifies the paper's
// Section-1 variability challenge at circuit level: how much clock margin
// a die needs once Vth fluctuates.
#pragma once

#include <vector>

#include "circuit/netlist.h"

namespace nano::sta {

/// Gaussian arrival model per node.
struct StatTiming {
  std::vector<double> mean;    ///< s
  std::vector<double> sigma;   ///< s
  double criticalMean = 0.0;   ///< worst endpoint mean
  double criticalSigma = 0.0;  ///< sigma of that endpoint
};

/// Options for the variability model.
struct SstaOptions {
  /// Relative delay sensitivity to Vth, 1/V: fractional delay change per
  /// volt of Vth shift (~1/Vgt above threshold; a few /V at low Vdd).
  double delaySensitivity = 2.0;
  /// Pelgrom coefficient, V*m (see device/variation).
  double pelgromAvt = 3.0e-9;
  /// Device width per unit drive used for the sigma estimate, m.
  double unitDeviceWidth = 0.0;  ///< 0: derived from the node feature size
};

/// Propagate means and sigmas. Gate delay sigma = mean delay *
/// delaySensitivity * sigmaVth(drive-dependent device width); fanin MAX is
/// combined with Clark's two-moment approximation (independence assumed).
StatTiming analyzeStatistical(const circuit::Netlist& netlist,
                              const tech::TechNode& node,
                              const SstaOptions& options = {});

/// Probability that every endpoint meets `clockPeriod` (independent-
/// endpoint approximation), i.e. parametric timing yield.
double timingYield(const circuit::Netlist& netlist, const StatTiming& timing,
                   double clockPeriod);

}  // namespace nano::sta
