// Compact MOSFET model implementing the paper's Eqs. (2)-(4):
//
//   (3)  Idsat0 = (W*mu_eff*Coxe / 2*Leff) * (Vgs-Vth)^2 / (1 + (Vgs-Vth)/(Esat*Leff))
//   (2)  Ion    = Idsat0 corrected for the parasitic source resistance Rs
//   (4)  Ioff   = 10 uA/um * 10^(-Vth / S)
//
// extended with the modeling the paper's Section 3.1 discussion calls for:
//  * electrical oxide thickness (physical + ~7 A inversion-layer/"GDE"
//    correction; ~3.5 A for a metal gate that eliminates gate depletion),
//  * universal-mobility degradation mu_eff(Eeff) with Eeff = (Vgs+Vth)/6Tox,
//  * velocity saturation through Esat = 2*vsat/mu_eff,
//  * DIBL (needed for the paper's "static power decays roughly quadratically
//    with Vdd at fixed Vth" observation used in Figures 3-4),
//  * temperature dependence of the subthreshold swing and Vth (Figure 1 is
//    drawn at 85 C),
//  * EKV-style Vgt smoothing so the drive-current law degrades gracefully
//    into the subthreshold region (Figures 3-4 operate at Vdd as low as
//    0.2 V with Vth ~ 0.11 V).
//
// All quantities SI; per-width currents in A/m (== uA/um).
#pragma once

#include "tech/itrs.h"
#include "util/numeric.h"

namespace nano::device {

enum class GateStack {
  Poly,      ///< poly gate: inversion layer + gate depletion, +7 A electrical
  Metal,     ///< metal gate: inversion layer only, +3.5 A electrical
};

/// Full parameter set of one transistor flavor. Use Mosfet::fromNode() to
/// derive one from an ITRS roadmap entry.
struct MosfetParams {
  double toxPhysical = 2e-9;   ///< physical oxide thickness, m
  GateStack gateStack = GateStack::Poly;
  double leff = 1e-7;          ///< effective channel length, m
  double vthNominal = 0.3;     ///< saturation Vth at Vds = vddReference, V
  double vddReference = 1.8;   ///< Vds at which vthNominal is specified, V
  double rsOhmM = 180e-6;      ///< source parasitic resistance * width, ohm*m
  double dibl = 0.0;           ///< Vth shift per volt of Vds reduction, V/V
  double swing300K = 0.085;    ///< subthreshold swing at 300 K, V/decade
  double temperature = 300.0;  ///< operating temperature, K

  // Universal mobility model mu0 / (1 + (Eeff/E0)^nu), low-field mobility
  // scaled as (300/T)^1.5. E0/nu/vsat are calibrated so the required-Vth
  // row of the paper's Table 2 is matched to 16 mV RMS across the roadmap
  // (see tests/device/mosfet_test and EXPERIMENTS.md).
  double mu0 = 540e-4;         ///< m^2/Vs (540 cm^2/Vs, electrons)
  double e0Universal = 7.0e7;  ///< V/m (0.70 MV/cm)
  double nuUniversal = 2.0;
  double vsat = 1.2e5;         ///< saturation velocity, m/s

  double ioffPrefactor = 10.0;       ///< Eq. (4) prefactor, A/m (10 uA/um)
  double vthTempCo = -0.7e-3;        ///< Vth temperature coefficient, V/K
};

/// One NMOS device flavor; immutable after construction. All currents are
/// per unit width (A/m). The constructor evaluates once every term of the
/// model that does not depend on Vth or bias, so a sweep that varies only
/// Vth takes copies through withVth() instead of rebuilding the device.
class Mosfet {
 public:
  explicit Mosfet(const MosfetParams& params);

  /// Derive a device from a roadmap node, with an explicit Vth and the
  /// supply `vddReference` at which that Vth is specified (the DIBL
  /// reference). Leff, Tox, Rs, DIBL and swing come from the node.
  static Mosfet fromNode(const tech::TechNode& node, double vth,
                         double vddReference,
                         GateStack stack = GateStack::Poly,
                         double temperature = 300.0);

  /// The same device with nominal Vth `vthNominal`; equal to constructing
  /// it from the changed params, without re-deriving the constants.
  [[nodiscard]] Mosfet withVth(double vthNominal) const;

  [[nodiscard]] const MosfetParams& params() const { return params_; }

  /// Electrical oxide thickness (physical + inversion/GDE correction), m.
  [[nodiscard]] double toxElectrical() const { return toxE_; }
  /// Electrical gate-oxide capacitance per area, F/m^2.
  [[nodiscard]] double coxElectrical() const { return coxE_; }
  /// Physical gate-oxide capacitance per area, F/m^2.
  [[nodiscard]] double coxPhysical() const;

  /// Effective threshold seen at drain bias `vds` (DIBL raises Vth when the
  /// device operates below the reference drain bias), at the operating
  /// temperature.
  [[nodiscard]] double vthEffective(double vds) const;

  /// Subthreshold swing at the operating temperature, V/decade.
  [[nodiscard]] double subthresholdSwing() const { return swing_; }

  /// Universal-mobility effective mobility at gate bias `vgs`, m^2/Vs.
  [[nodiscard]] double mobility(double vgs) const;

  /// Velocity-saturation field 2*vsat/mu_eff(vgs), V/m.
  [[nodiscard]] double esat(double vgs) const;

  /// Eq. (3), per width (A/m), with EKV smoothing of (Vgs - Vth) so the
  /// expression remains valid through weak inversion. `vds` sets the DIBL
  /// operating point (defaults to the reference Vdd).
  [[nodiscard]] double idsat0(double vgs, double vds = -1.0) const;

  /// Source-resistance-degenerated on-current solved self-consistently:
  /// I = Idsat0(Vgs - I*Rs), in place of the paper's first-order Eq. (2),
  /// which can go inaccurate (even negative) when Idsat0*Rs is a large
  /// fraction of Vgs-Vth.
  /// `vds` sets the DIBL operating point (default: the reference Vdd); pass
  /// the actual operating supply when studying reduced-Vdd operation
  /// (Figures 3-4). Solved with the bracketed Illinois iteration of
  /// device/ion_solve.h; agrees with the historical Brent solve to ~1e-11
  /// relative (same 1e-12*Imax interval tolerance), well inside the 1e-6
  /// golden-figure tolerance.
  [[nodiscard]] double ionSelfConsistent(double vgs, double vds = -1.0) const;

  /// Drive current at the reference supply (self-consistent), A/m.
  [[nodiscard]] double ion() const;

  /// Eq. (4) off-current at drain bias `vds` (default: reference Vdd),
  /// including DIBL and temperature, A/m.
  [[nodiscard]] double ioff(double vds = -1.0) const;

  /// Deep-triode channel conductance per width at gate bias `vgs`:
  /// mu_eff * Coxe * (Vgs - Vth) / Leff, A/(V*m). What a pass/sleep device
  /// presents when its drain-source voltage is small.
  [[nodiscard]] double linearConductance(double vgs) const;

  /// EKV-smoothed overdrive: ~= vgs - vth above threshold, exponential decay
  /// below; exposed for tests.
  [[nodiscard]] double smoothedOverdrive(double vgs, double vth) const;

 private:
  MosfetParams params_;
  // Terms independent of Vth and bias, each computed with the exact
  // arithmetic of the expression it stands for and only ever substituted
  // for that whole subexpression, so hoisting them changes no bit.
  double tempShift_ = 0.0;  ///< vthTempCo * (T - 300)
  double swing_ = 0.0;      ///< swing300K * T / 300
  double twoNvt_ = 0.0;     ///< 2 * (swing / ln 10), the EKV 2*n*vt
  double toxE_ = 0.0;       ///< physical Tox + inversion/GDE correction
  double coxE_ = 0.0;       ///< epsSiO2 / toxE_
  double sixTox_ = 0.0;     ///< 6 * toxE_, the universal-mobility field divisor
  double mu0T_ = 0.0;       ///< mu0 * (300/T)^1.5
};

/// Iteration/tolerance knobs for the Vth solve; the defaults reproduce the
/// historical behavior. Exposed so fault-injection tests can force the
/// max-iteration path without waiting for a pathological tech node.
struct VthSolveOptions {
  int maxExpand = 40;    ///< bracket doublings before the wide-bracket retry
  double xtol = 1e-9;    ///< V
  int maxIter = 100;     ///< Brent budget (bisection fallback gets 2x)
};

/// Structured outcome of a Vth solve. On failure `vth` is the best iterate
/// (NaN only when the inputs themselves were non-finite).
struct VthSolveResult {
  double vth = 0.0;            ///< V
  util::Diagnostics diag;      ///< kernel "device/solve_vth"
};

/// Checked Vth-for-Ion solve: never throws on numerical failure. Recovery
/// ladder: NaN/Inf input guard, bracket solve on [-0.2, Vdd], then one
/// re-expansion retry on a much wider bracket before reporting
/// BracketFailure.
VthSolveResult solveVthForIonChecked(const tech::TechNode& node,
                                     double ionTarget,
                                     GateStack stack = GateStack::Poly,
                                     double vddOverride = -1.0,
                                     double temperature = 300.0,
                                     const VthSolveOptions& options = {});

/// Solve for the Vth that makes the device's self-consistent Ion at the
/// node's Vdd equal `ionTarget` (A/m). This is the computation behind the
/// "Vth required to meet Ion" row of Table 2. Thin throwing wrapper over
/// solveVthForIonChecked(): raises std::invalid_argument on bracket
/// failure or non-finite inputs, like the historical implementation.
double solveVthForIon(const tech::TechNode& node, double ionTarget,
                      GateStack stack = GateStack::Poly,
                      double vddOverride = -1.0, double temperature = 300.0);

/// PMOS per-width drive relative to NMOS at equal geometry; used by gate
/// models to size pull-up networks (holes: lower mobility).
inline constexpr double kPmosCurrentFactor = 0.45;

}  // namespace nano::device
