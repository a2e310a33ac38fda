#include "util/numeric.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace nano::util {

namespace {

bool sameSign(double a, double b) { return (a > 0) == (b > 0); }

bool finite(double v) { return std::isfinite(v); }

/// Failure exit of the throwing bracketAndSolve: translates the structured
/// statuses back into the historical exception contract.
SolveResult orThrow(SolveResult r, const char* what) {
  if (r.status == SolverStatus::BracketFailure ||
      r.status == SolverStatus::NanDetected) {
    throw std::invalid_argument(std::string(what) + ": " +
                                solverStatusName(r.status));
  }
  return r;
}

}  // namespace

const char* solverStatusName(SolverStatus status) {
  switch (status) {
    case SolverStatus::Converged: return "converged";
    case SolverStatus::MaxIterations: return "max-iterations";
    case SolverStatus::BracketFailure: return "bracket-failure";
    case SolverStatus::NanDetected: return "nan-detected";
  }
  return "unknown";
}

std::string Diagnostics::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: %s after %d iterations, residual %.3g",
                kernel[0] ? kernel : "solver", solverStatusName(status),
                iterations, residual);
  return buf;
}

Diagnostics SolveResult::diagnostics() const {
  Diagnostics d;
  d.status = status;
  d.iterations = iterations;
  d.residual = std::abs(fx);
  d.kernel = kernel;
  return d;
}

SolveResult tryBisect(const std::function<double(double)>& f, double lo,
                      double hi, double xtol, int maxIter) {
  SolveResult r;
  r.kernel = "bisect";
  if (!finite(lo) || !finite(hi)) {
    r.x = lo;
    r.fx = std::nan("");
    r.status = SolverStatus::NanDetected;
    return r;
  }
  double flo = f(lo);
  double fhi = f(hi);
  if (!finite(flo) || !finite(fhi)) {
    r.x = finite(flo) ? hi : lo;
    r.fx = finite(flo) ? fhi : flo;
    r.status = SolverStatus::NanDetected;
    return r;
  }
  auto exact = [&](double x) {
    r.x = x;
    r.fx = 0.0;
    r.converged = true;
    r.status = SolverStatus::Converged;
    return r;
  };
  if (flo == 0.0) return exact(lo);
  if (fhi == 0.0) return exact(hi);
  if (sameSign(flo, fhi)) {
    r.x = std::abs(flo) < std::abs(fhi) ? lo : hi;
    r.fx = std::abs(flo) < std::abs(fhi) ? flo : fhi;
    r.status = SolverStatus::BracketFailure;
    return r;
  }
  for (int i = 0; i < maxIter; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    r.iterations = i + 1;
    if (!finite(fmid)) {
      r.x = mid;
      r.fx = fmid;
      r.status = SolverStatus::NanDetected;
      return r;
    }
    if (fmid == 0.0 || (hi - lo) < xtol) {
      r.x = mid;
      r.fx = fmid;
      r.converged = true;
      r.status = SolverStatus::Converged;
      return r;
    }
    if (sameSign(flo, fmid)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  r.x = 0.5 * (lo + hi);
  r.fx = f(r.x);
  r.converged = (hi - lo) < xtol;
  r.status = r.converged ? SolverStatus::Converged : SolverStatus::MaxIterations;
  return r;
}

SolveResult tryBrent(const std::function<double(double)>& f, double lo,
                     double hi, double xtol, int maxIter) {
  SolveResult r;
  r.kernel = "brent";
  if (!finite(lo) || !finite(hi)) {
    r.x = lo;
    r.fx = std::nan("");
    r.status = SolverStatus::NanDetected;
    return r;
  }
  double a = lo, b = hi;
  double fa = f(a), fb = f(b);
  if (!finite(fa) || !finite(fb)) {
    r.x = finite(fa) ? b : a;
    r.fx = finite(fa) ? fb : fa;
    r.status = SolverStatus::NanDetected;
    return r;
  }
  auto exact = [&](double x) {
    r.x = x;
    r.fx = 0.0;
    r.converged = true;
    r.status = SolverStatus::Converged;
    return r;
  };
  if (fa == 0.0) return exact(a);
  if (fb == 0.0) return exact(b);
  if (sameSign(fa, fb)) {
    r.x = std::abs(fa) < std::abs(fb) ? a : b;
    r.fx = std::abs(fa) < std::abs(fb) ? fa : fb;
    r.status = SolverStatus::BracketFailure;
    return r;
  }
  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a, fc = fa;
  double d = b - a;  // last step when bisection used
  bool mflag = true;
  for (int i = 0; i < maxIter; ++i) {
    r.iterations = i + 1;
    if (fb == 0.0 || std::abs(b - a) < xtol) {
      r.x = b;
      r.fx = fb;
      r.converged = true;
      r.status = SolverStatus::Converged;
      return r;
    }
    double s;
    if (fa != fc && fb != fc) {
      // Inverse quadratic interpolation.
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      // Secant.
      s = b - fb * (b - a) / (fb - fa);
    }
    const double mid = 0.5 * (a + b);
    const bool between = (s > std::min(mid, b)) && (s < std::max(mid, b));
    const bool smallStep = mflag ? std::abs(s - b) >= 0.5 * std::abs(b - c)
                                 : std::abs(s - b) >= 0.5 * std::abs(c - d);
    if (!between || smallStep) {
      s = mid;
      mflag = true;
    } else {
      mflag = false;
    }
    const double fs = f(s);
    if (!finite(fs)) {
      // Report the best bracketed iterate, not the poisoned probe point.
      r.x = b;
      r.fx = fb;
      r.status = SolverStatus::NanDetected;
      return r;
    }
    d = c;
    c = b;
    fc = fb;
    if (sameSign(fa, fs)) {
      a = s;
      fa = fs;
    } else {
      b = s;
      fb = fs;
    }
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  r.x = b;
  r.fx = fb;
  r.converged = false;
  r.status = SolverStatus::MaxIterations;
  return r;
}

SolveResult tryBracketAndSolve(const std::function<double(double)>& f,
                               double lo, double hi, int maxExpand,
                               double xtol, int maxIter) {
  SolveResult r;
  r.kernel = "bracketAndSolve";
  if (!finite(lo) || !finite(hi)) {
    r.x = lo;
    r.fx = std::nan("");
    r.status = SolverStatus::NanDetected;
    return r;
  }
  if (hi < lo) std::swap(lo, hi);
  if (hi == lo) {
    // Degenerate interval: give the expansion a finite width to double.
    hi = lo + std::max(1e-12, std::abs(lo) * 1e-9);
  }
  double flo = f(lo);
  double fhi = f(hi);
  int expansions = 0;
  auto exact = [&](double x) {
    r.x = x;
    r.fx = 0.0;
    r.iterations = expansions;
    r.converged = true;
    r.status = SolverStatus::Converged;
    return r;
  };
  while (true) {
    if (!finite(flo) || !finite(fhi)) {
      r.x = finite(flo) ? hi : lo;
      r.fx = finite(flo) ? fhi : flo;
      r.iterations = expansions;
      r.status = SolverStatus::NanDetected;
      return r;
    }
    // An expansion step can land exactly on a root; sameSign() classifies
    // an exact zero as negative, so without this check the loop either
    // expands past the root or gives up with "failed to bracket".
    if (flo == 0.0) return exact(lo);
    if (fhi == 0.0) return exact(hi);
    if (!sameSign(flo, fhi)) break;
    if (expansions >= maxExpand) {
      r.x = std::abs(flo) < std::abs(fhi) ? lo : hi;
      r.fx = std::abs(flo) < std::abs(fhi) ? flo : fhi;
      r.iterations = expansions;
      r.status = SolverStatus::BracketFailure;
      return r;
    }
    const double width = hi - lo;
    // Expand the side whose value is smaller in magnitude (closer to the
    // root, so grow away from it less aggressively).
    if (std::abs(flo) < std::abs(fhi)) {
      lo -= width;
      flo = f(lo);
    } else {
      hi += width;
      fhi = f(hi);
    }
    ++expansions;
  }
  r = tryBrent(f, lo, hi, xtol, maxIter);
  r.kernel = "bracketAndSolve";
  r.iterations += expansions;
  if (r.status == SolverStatus::MaxIterations) {
    // Recovery ladder: a stalled Brent solve still holds a valid bracket,
    // and plain bisection is guaranteed to shrink it.
    SolveResult fallback =
        tryBisect(f, lo, hi, xtol, std::max(2 * maxIter, 200));
    fallback.kernel = "bracketAndSolve";
    fallback.iterations += r.iterations;
    if (fallback.status == SolverStatus::Converged) return fallback;
    if (std::abs(fallback.fx) < std::abs(r.fx)) {
      fallback.status = SolverStatus::MaxIterations;
      return fallback;
    }
  }
  return r;
}

SolveResult bracketAndSolve(const std::function<double(double)>& f, double lo,
                            double hi, int maxExpand, double xtol) {
  return orThrow(tryBracketAndSolve(f, lo, hi, maxExpand, xtol),
                 "bracketAndSolve: failed to bracket a root");
}

SolveResult tryMinimizeGolden(const std::function<double(double)>& f,
                              double lo, double hi, double xtol, int maxIter) {
  constexpr double invPhi = 0.6180339887498949;
  SolveResult r;
  r.kernel = "minimizeGolden";
  if (!finite(lo) || !finite(hi)) {
    r.x = lo;
    r.fx = std::nan("");
    r.status = SolverStatus::NanDetected;
    return r;
  }
  double a = lo, b = hi;
  double x1 = b - invPhi * (b - a);
  double x2 = a + invPhi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  auto poisoned = [&]() {
    // Keep the best finite probe; the caller decides how to recover.
    r.x = finite(f1) ? x1 : x2;
    r.fx = finite(f1) ? f1 : f2;
    if (!finite(r.fx)) {
      r.x = 0.5 * (a + b);
      r.fx = std::nan("");
    }
    r.status = SolverStatus::NanDetected;
    return r;
  };
  if (!finite(f1) || !finite(f2)) return poisoned();
  for (int i = 0; i < maxIter && (b - a) > xtol; ++i) {
    r.iterations = i + 1;
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - invPhi * (b - a);
      f1 = f(x1);
      if (!finite(f1)) return poisoned();
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + invPhi * (b - a);
      f2 = f(x2);
      if (!finite(f2)) return poisoned();
    }
  }
  r.x = 0.5 * (a + b);
  r.fx = f(r.x);
  r.converged = (b - a) <= xtol;
  r.status = r.converged ? SolverStatus::Converged : SolverStatus::MaxIterations;
  return r;
}

std::vector<double> linspace(double lo, double hi, int n) {
  if (n < 2) throw std::invalid_argument("linspace: n must be >= 2");
  std::vector<double> out(static_cast<std::size_t>(n));
  const double step = (hi - lo) / (n - 1);
  for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = lo + step * i;
  out.back() = hi;
  return out;
}

std::vector<double> logspace(double lo, double hi, int n) {
  if (lo <= 0 || hi <= 0) throw std::invalid_argument("logspace: bounds must be > 0");
  auto exps = linspace(std::log10(lo), std::log10(hi), n);
  for (double& e : exps) e = std::pow(10.0, e);
  exps.back() = hi;
  return exps;
}

}  // namespace nano::util
