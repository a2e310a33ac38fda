// MOS current-mode logic (MCML) model, paper Section 4: a logic family
// that burns constant static current but produces almost no supply-current
// transients and can beat static CMOS on total power in high-activity
// datapaths (the paper cites Musicer & Rabaey [42]).
#pragma once

#include "tech/itrs.h"

namespace nano::signaling {

/// An MCML gate: differential pair steered by the inputs, load resistors
/// setting the swing, a tail current source setting speed.
struct McmlGate {
  double tailCurrent = 100e-6;  ///< A
  double swing = 0.3;           ///< V (I_tail * R_load)
  double loadCap = 5e-15;       ///< F per output (differential pair: two)

  /// Static power: the tail conducts continuously, W at supply `vdd`.
  [[nodiscard]] double staticPower(double vdd) const;
  /// Dynamic energy per transition: the differential outputs exchange
  /// swing-sized charge, J.
  [[nodiscard]] double switchingEnergy() const;
  /// Total power at `freq`/`activity`, W.
  [[nodiscard]] double totalPower(double vdd, double freq, double activity) const;
  /// Peak-to-average supply current ratio (~1: constant current draw).
  [[nodiscard]] double supplyCurrentRipple() const { return 0.05; }
};

/// A static CMOS gate with the same load and comparable delay, for
/// comparison. Characterized from a roadmap node.
struct CmosEquivalent {
  double switchingEnergyJ = 0.0;
  double leakagePowerW = 0.0;
  double delayS = 0.0;
  double peakSupplyCurrentA = 0.0;
  [[nodiscard]] double totalPower(double freq, double activity) const {
    return activity * switchingEnergyJ * freq + leakagePowerW;
  }
};

/// Build a delay-matched (MCML, CMOS) pair driving `loadCap` in `node`.
/// The MCML tail current is sized so both gates have the same delay; the
/// MCML delay is 0.69 * R_load * C = 0.69 * swing/I * C.
struct MatchedPair {
  McmlGate mcml;
  CmosEquivalent cmos;
};
MatchedPair buildMatchedPair(const tech::TechNode& node, double loadCap);

/// Activity factor above which the delay-matched MCML gate burns less total
/// power than its CMOS equivalent at the node's local clock; returns a
/// value > 1 if CMOS always wins, < 0 if MCML always wins (leaky CMOS).
double mcmlCrossoverActivity(const tech::TechNode& node, double loadCap);

}  // namespace nano::signaling
