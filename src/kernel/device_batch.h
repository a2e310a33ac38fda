// Batched SoA evaluation of the device::Mosfet compact model.
//
// DeviceKernel hoists every quantity of the Eq. (2)-(4) model that does
// not depend on (VthNominal, Vgs, Vds) — the temperature Vth shift, the
// subthreshold swing and its EKV n*vt, the electrical Cox, the
// temperature-scaled low-field mobility, and the geometry products — so a
// sweep evaluates each grid point with two libm calls (exp + log1p) per
// Idsat0 instead of re-deriving the constants per element. The per-element
// arithmetic replicates device::Mosfet expression-for-expression, so every
// prepared evaluator is bit-identical to constructing a Mosfet per point
// (asserted by the kernel equivalence property tests); the Ion fixed point
// runs the same kernel::solveDegeneratedIon iteration as
// Mosfet::ionSelfConsistent (documented ~1e-11 relative agreement with the
// historical Brent solve; see kernel/ion_solve.h).
//
// The batch entry points are plain loops over the prepared evaluators,
// with no dispatch: their cost is libm (exp/log1p/pow), which has no
// bit-identical vector form, so the wins live in the prepared constants
// and the secant solve, not in lane width.
#pragma once

#include <span>

#include "device/mosfet.h"

namespace nano::kernel {

/// Prepared evaluator for one device flavor (fixed params, temperature and
/// DIBL reference supply) with the threshold voltage, gate and drain bias
/// varying per element. Immutable after construction; safe to share across
/// exec lanes.
class DeviceKernel {
 public:
  /// `base.vthNominal` is ignored; every evaluator takes the per-element
  /// Vth explicitly. Throws like Mosfet on non-positive geometry.
  explicit DeviceKernel(const device::MosfetParams& base);

  /// Node-derived kernel with an explicit DIBL reference supply (the
  /// design-space convention: Vth specified at nominal Vdd).
  static DeviceKernel fromNode(const tech::TechNode& node,
                               double vddReference,
                               device::GateStack stack = device::GateStack::Poly,
                               double temperature = 300.0);

  /// Effective threshold at drain bias `vds` (bit-identical to
  /// Mosfet::vthEffective). Negative `vds` means the reference supply.
  [[nodiscard]] double vthEffective(double vthNominal, double vds) const;

  /// Eq. (3) saturation current, A/m (bit-identical to Mosfet::idsat0).
  [[nodiscard]] double idsat0(double vthNominal, double vgs,
                              double vds = -1.0) const;

  /// Eq. (2) self-consistent on-current, A/m (bit-identical to
  /// Mosfet::ionSelfConsistent — same secant iteration).
  [[nodiscard]] double ion(double vthNominal, double vgs,
                           double vds = -1.0) const;

  /// Eq. (4) off-current, A/m (bit-identical to Mosfet::ioff).
  [[nodiscard]] double ioff(double vthNominal, double vds = -1.0) const;

  // SoA batches: out[i] = f(vthNominal[i], ...). All spans must share one
  // length; lane i writes only out[i], so any partition of a batch across
  // exec workers reproduces the serial result bit-for-bit.
  void ionBatch(std::span<const double> vthNominal,
                std::span<const double> vgs, std::span<const double> vds,
                std::span<double> out) const;
  void ioffBatch(std::span<const double> vthNominal,
                 std::span<const double> vds, std::span<double> out) const;

  [[nodiscard]] const device::MosfetParams& params() const { return params_; }

 private:
  [[nodiscard]] double mobility(double vthNominal, double vgs) const;
  [[nodiscard]] double smoothedOverdrive(double vgs, double vth) const;

  device::MosfetParams params_;
  // Hoisted constants; names follow the Mosfet member expressions they
  // replace. Each is computed with the exact arithmetic the per-call path
  // uses, and is only ever substituted for that whole subexpression (never
  // re-associated), so hoisting is a bitwise no-op.
  double tempShift_ = 0.0;   ///< vthTempCo * (T - 300)
  double swing_ = 0.0;       ///< subthresholdSwing() at T
  double twoNvt_ = 0.0;      ///< 2 * (swing / ln 10), the EKV 2*n*vt
  double cox_ = 0.0;         ///< coxElectrical()
  double sixTox_ = 0.0;      ///< 6 * toxElectrical()
  double mu0T_ = 0.0;        ///< mu0 * (300/T)^1.5
  double twoVsat_ = 0.0;     ///< 2 * vsat
  double twoLeff_ = 0.0;     ///< 2 * leff
};

}  // namespace nano::kernel
