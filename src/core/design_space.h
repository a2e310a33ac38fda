// The paper's Section 3.3 endgame: with multiple supplies and thresholds,
// "designers and EDA tools can fully explore the design space of dynamic
// power, static power, and timing slack". This module is that explorer: a
// (Vdd, Vth) grid evaluated through the compact model, plus the
// constrained optimizer (minimum total power subject to a delay target)
// that the multi-Vdd/multi-Vth flow approximates discretely.
#pragma once

#include <vector>

#include "device/mosfet.h"
#include "tech/itrs.h"

namespace nano::core {

/// Nominal-corner reference of one node's (Vdd, Vth) sweeps: the design
/// space below and Figures 3-4 (core/experiments.h). The reference gate
/// is the Table-2 inverter with a fixed FO4 + local-wire load; each sample
/// evaluates a withVth() copy of `device` at Vgs = Vds = Vdd.
struct SweepReference {
  device::Mosfet device;  ///< Table-2 Vth, specified at nominal Vdd (DIBL)
  double vdd0 = 0.0;      ///< V, nominal supply
  double vth0 = 0.0;      ///< V, Table-2 Vth at nominal Vdd
  double loadCap = 0.0;   ///< F, fixed FO4 + wire + self load
  double widthEff = 0.0;  ///< m, leakage-effective width
  double freq = 0.0;      ///< Hz, local clock
  double activity = 0.0;  ///< switching activity of the dynamic term
  double delay0 = 0.0;    ///< s (arbitrary load constant folded in)
  double pdyn0 = 0.0;     ///< W, nominal dynamic power
  double ioff0 = 0.0;     ///< A/m, nominal off-current
  double pstat0 = 0.0;    ///< W, nominal static power

  /// C * V / Ion at (vdd, vthDesign); the k of k*C*V/I cancels in ratios.
  [[nodiscard]] double delay(double vdd, double vthDesign) const;
  [[nodiscard]] double pdyn(double vdd) const;
  [[nodiscard]] double pstat(double vdd, double vthDesign) const;
};

/// The reference of node `nodeNm` (nm) at switching activity `activity`.
SweepReference makeSweepReference(int nodeNm, double activity);

/// One (Vdd, Vth) operating point of a reference gate, normalized to the
/// node's nominal corner (nominal Vdd, Table-2 Vth).
struct OperatingPoint {
  double vdd = 0.0;        ///< V
  double vthDesign = 0.0;  ///< V, specified at nominal Vdd (DIBL applies)
  double delayNorm = 0.0;  ///< delay / nominal delay
  double pdynNorm = 0.0;   ///< dynamic power / nominal dynamic power
  double pstatNorm = 0.0;  ///< static power / nominal STATIC power
  double ptotalNorm = 0.0; ///< total power / nominal total power
  double staticFraction = 0.0;  ///< Pstat / (Pstat + Pdyn) at this point
};

/// Exploration options.
struct DesignSpaceOptions {
  int nodeNm = 35;
  double activity = 0.1;   ///< switching activity for the dynamic term
  double vddMin = 0.2;     ///< V
  double vthMin = -0.05;   ///< V
  double vthMax = 0.30;    ///< V
  int vddSteps = 15;
  int vthSteps = 15;
};

/// Evaluate a single (vdd, vthDesign) point.
OperatingPoint evaluatePoint(const DesignSpaceOptions& options, double vdd,
                             double vthDesign);

/// The full grid (vddSteps x vthSteps points).
std::vector<OperatingPoint> exploreDesignSpace(const DesignSpaceOptions& options);

/// Minimum-total-power point subject to delayNorm <= delayTarget and
/// (optionally) a static-power share cap. Without the cap the optimum
/// pins Vdd at the floor and buys the speed back with near-zero Vth — the
/// model's honest low-activity answer; with the ITRS-style cap
/// (maxStaticFraction = 1/11, i.e. Pdyn >= 10 * Pstat) it reproduces the
/// paper's Figure-4 operating point near Vdd = 0.44 V.
OperatingPoint optimalPoint(const DesignSpaceOptions& options,
                            double delayTarget,
                            double maxStaticFraction = 1.0);

/// The ITRS static-share constraint the paper applies: Pdyn >= 10 * Pstat.
inline constexpr double kItrsStaticFractionCap = 1.0 / 11.0;

}  // namespace nano::core
