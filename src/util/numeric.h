// Small numerics toolbox: root finding, 1-D minimization, and range
// generation. All routines are deterministic and allocation-free except the
// range generators.
//
// Every iterative kernel reports a structured SolverStatus instead of
// throwing: the try* variants never throw on numerical failure and return
// the best iterate with a Diagnostics record. bracketAndSolve alone keeps
// the historical throw-on-bad-bracket contract by wrapping its try* form.
// See docs/ROBUSTNESS.md for the recovery ladder.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace nano::util {

/// How an iterative solve ended.
enum class SolverStatus {
  Converged,      ///< tolerance met (or exact root hit)
  MaxIterations,  ///< iteration budget exhausted before tolerance
  BracketFailure, ///< no sign change found / degenerate interval
  NanDetected,    ///< NaN or Inf encountered in inputs or f evaluations
};

/// Short stable name for a status ("converged", "max-iterations", ...).
const char* solverStatusName(SolverStatus status);

/// Structured outcome of one solver invocation, cheap to copy and safe to
/// carry across sweep points. `kernel` is a static string naming the
/// routine (and, for domain solvers, the model quantity being solved).
struct Diagnostics {
  SolverStatus status = SolverStatus::MaxIterations;
  int iterations = 0;      ///< total iterations across the recovery ladder
  double residual = 0.0;   ///< |f(x)| (roots) or final interval (minimizers)
  const char* kernel = ""; ///< static name of the kernel that produced this
  [[nodiscard]] bool ok() const { return status == SolverStatus::Converged; }
  /// One-line human-readable summary, e.g.
  /// "brent: max-iterations after 100 iterations, residual 3.2e-05".
  [[nodiscard]] std::string describe() const;
};

/// Result of an iterative solve.
struct SolveResult {
  double x = 0.0;        ///< located root / minimizer (best iterate on failure)
  double fx = 0.0;       ///< function value at x
  int iterations = 0;    ///< iterations consumed
  bool converged = false;
  SolverStatus status = SolverStatus::MaxIterations;
  const char* kernel = "";
  /// Structured view of the outcome (residual = |fx|).
  [[nodiscard]] Diagnostics diagnostics() const;
};

/// Find a root of `f` in [lo, hi] by bisection. f(lo) and f(hi) must
/// bracket a sign change; BracketFailure / NanDetected come back through
/// the result status, never as an exception.
SolveResult tryBisect(const std::function<double(double)>& f, double lo,
                      double hi, double xtol = 1e-12, int maxIter = 200);

/// Brent's method root finder (inverse quadratic interpolation + bisection
/// fallback). Same bracketing requirement as tryBisect(), faster
/// convergence; NaN guards on every function evaluation.
SolveResult tryBrent(const std::function<double(double)>& f, double lo,
                     double hi, double xtol = 1e-12, int maxIter = 100);

/// Expand [lo, hi] geometrically until f changes sign, then solve with Brent.
/// Useful when only a one-sided starting guess is available. Throws if no
/// bracket is found within `maxExpand` doublings.
SolveResult bracketAndSolve(const std::function<double(double)>& f, double lo,
                            double hi, int maxExpand = 60, double xtol = 1e-12);

/// Non-throwing bracketAndSolve with the full recovery ladder: degenerate
/// intervals are widened, an expansion step landing exactly on a root
/// returns immediately, and a Brent solve that exhausts `maxIter` falls
/// back to bisection on the bracket before reporting MaxIterations.
SolveResult tryBracketAndSolve(const std::function<double(double)>& f,
                               double lo, double hi, int maxExpand = 60,
                               double xtol = 1e-12, int maxIter = 100);

/// Golden-section minimization of a unimodal `f` on [lo, hi]. NaN guards on
/// every evaluation; a poisoned evaluation stops the shrink and reports
/// NanDetected with the best finite iterate seen so far.
SolveResult tryMinimizeGolden(const std::function<double(double)>& f,
                              double lo, double hi, double xtol = 1e-10,
                              int maxIter = 200);

/// n evenly spaced samples covering [lo, hi] inclusive (n >= 2).
std::vector<double> linspace(double lo, double hi, int n);

/// n logarithmically spaced samples covering [lo, hi] inclusive
/// (lo, hi > 0, n >= 2).
std::vector<double> logspace(double lo, double hi, int n);

}  // namespace nano::util
