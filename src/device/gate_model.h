// Gate-level abstraction on top of the compact MOSFET model: input/output
// capacitance, switching delay, dynamic energy and leakage power of a
// static CMOS inverter (the paper's reference gate: Wn/L = 4, Wp/L = 8,
// fan-out of 4 plus an average wiring load; see Figure 1 footnote 6).
#pragma once

#include "device/mosfet.h"
#include "tech/itrs.h"

namespace nano::device {

/// Geometry of a static CMOS gate in multiples of the drawn channel length.
struct GateGeometry {
  double wnOverL = 4.0;  ///< NMOS width / L (paper footnote 6)
  double wpOverL = 8.0;  ///< PMOS width / L
};

/// Static CMOS inverter characterized from a technology node, an NMOS Vth
/// and an operating point (Vdd, temperature). The PMOS is modeled as an
/// NMOS with kPmosCurrentFactor per-width drive and symmetric Vth.
class InverterModel {
 public:
  /// `vth` is the NMOS saturation threshold specified at `vddOperating`
  /// (i.e. the DIBL reference is the operating supply of this instance).
  InverterModel(const tech::TechNode& node, double vth, double vddOperating,
                GateGeometry geometry = {}, double temperature = 300.0,
                GateStack stack = GateStack::Poly);

  [[nodiscard]] const tech::TechNode& node() const { return *node_; }
  [[nodiscard]] const Mosfet& nmos() const { return nmos_; }
  [[nodiscard]] double vdd() const { return vdd_; }

  /// NMOS / PMOS widths, m.
  [[nodiscard]] double wn() const { return wn_; }
  [[nodiscard]] double wp() const { return wp_; }

  /// Gate input capacitance (channel + overlap), F.
  [[nodiscard]] double inputCap() const;
  /// Parasitic output (junction + Miller) capacitance, F.
  [[nodiscard]] double outputCap() const;

  /// Pull-down (NMOS) drive current at Vgs = Vdd, A.
  [[nodiscard]] double driveCurrentN() const;
  /// Pull-up (PMOS) drive current magnitude at |Vgs| = Vdd, A.
  [[nodiscard]] double driveCurrentP() const;

  /// Propagation delay driving `loadCap` (external load; self-loading is
  /// added internally): average of rise and fall, s.
  [[nodiscard]] double delay(double loadCap) const;

  /// FO4 delay with an optional extra wire load, s.
  [[nodiscard]] double fo4Delay(double wireCap = 0.0) const;

  /// Energy drawn from the supply per output transition pair driving
  /// `loadCap` (i.e. C_total * Vdd^2), J.
  [[nodiscard]] double switchingEnergy(double loadCap) const;

  /// Average dynamic power at clock `freq` and switching-activity factor
  /// `activity` (transitions per cycle), driving `loadCap`, W.
  [[nodiscard]] double dynamicPower(double loadCap, double freq,
                                    double activity) const;

  /// State-averaged leakage power: half the time the NMOS leaks, half the
  /// time the PMOS does, W.
  [[nodiscard]] double leakagePower() const;

 private:
  const tech::TechNode* node_;
  Mosfet nmos_;
  double vdd_;
  double wn_;
  double wp_;
};

/// Ratio of static to dynamic power for the reference inverter at a given
/// switching activity (Figure 1's y-axis). `vddOverride` selects the
/// 50 nm @ 0.7 V variant; the clock is the node's local clock.
double staticToDynamicRatio(const tech::TechNode& node, double activity,
                            double temperature, double vddOverride = -1.0);

}  // namespace nano::device
