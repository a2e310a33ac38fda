// Bracketed Illinois (modified regula falsi) solver for the source-
// degeneration fixed point I = Idsat0(Vgs - I*Rs), as run by
// device::Mosfet::ionSelfConsistent. Header-only and dependency-free.
//
// Why Illinois instead of the previous Brent solve: the residual
// f(i) = Idsat0(Vgs - i*Rs) - i is smooth, strictly decreasing, and
// bracketed by construction (f(0) = Imax > 0, f(Imax) <= 0), so the
// superlinear false-position variant converges in ~5 evaluations of the
// device model where Brent needed ~11 — the model evaluation is the whole
// cost of the sweep hot path. Documented tolerance: the returned root is
// within `xtol` (callers pass 1e-12 * Imax, i.e. ~1e-12 relative) of the
// exact fixed point, the same interval tolerance the Brent path used, so
// the difference against the historical solve is bounded by ~1e-11
// relative — far inside the 1e-6 golden-figure tolerance. The change is
// covered by the golden suite.
#pragma once

#include <cmath>

namespace nano::device {

struct IonSolveResult {
  double x = 0.0;       ///< located fixed point (best iterate on failure)
  int evaluations = 0;  ///< device-model evaluations consumed
  bool converged = false;
};

/// Solve f(i) = idsat0At(i) - i = 0 on [0, iMax] for a strictly
/// decreasing f with f(0) = iMax > 0. `idsat0At(i)` must return the drive
/// current at gate debias i*Rs; `xtol` is the absolute interval tolerance.
template <typename F>
IonSolveResult solveDegeneratedIon(F&& idsat0At, double iMax, double xtol) {
  IonSolveResult out;
  double a = 0.0, fa = iMax;
  double b = iMax;
  double fb = idsat0At(b) - b;
  out.evaluations = 1;
  if (!std::isfinite(fb)) {
    out.x = b;
    return out;
  }
  if (fb >= 0.0) {
    // Degeneration did not reduce the current (Rs == 0 or negligible):
    // the fixed point is iMax itself.
    out.x = iMax;
    out.converged = true;
    return out;
  }
  // Illinois: false-position steps with the retained endpoint's residual
  // halved whenever the same side is kept twice, which restores
  // superlinear convergence on convex residuals. Deterministic: the
  // iterate sequence depends only on (idsat0At, iMax, xtol).
  constexpr int kMaxIterations = 80;
  int side = 0;  // -1: `a` moved last, +1: `b` moved last
  double x = b;
  for (int it = 0; it < kMaxIterations; ++it) {
    x = (a * fb - b * fa) / (fb - fa);
    if (!(x > a && x < b)) x = 0.5 * (a + b);  // safeguarded bisection step
    const double fx = idsat0At(x) - x;
    ++out.evaluations;
    if (!std::isfinite(fx)) {
      out.x = x;
      return out;
    }
    if (fx == 0.0) {
      out.x = x;
      out.converged = true;
      return out;
    }
    if (fx > 0.0) {
      a = x;
      fa = fx;
      if (side == -1) fb *= 0.5;
      side = -1;
    } else {
      b = x;
      fb = fx;
      if (side == +1) fa *= 0.5;
      side = +1;
    }
    if (b - a <= xtol) {
      out.x = x;
      out.converged = true;
      return out;
    }
  }
  out.x = 0.5 * (a + b);
  return out;
}

}  // namespace nano::device
