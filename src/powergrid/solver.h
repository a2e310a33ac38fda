// Sparse symmetric-positive-definite linear solver (preconditioned
// conjugate gradients) for power-grid nodal analysis. Preconditioners are
// pluggable: the classic Jacobi diagonal scaling, or the geometric
// multigrid V-cycle from powergrid/multigrid.h.
#pragma once

#include <cstddef>
#include <vector>

#include "kernel/sell.h"
#include "util/numeric.h"

namespace nano::powergrid {

/// Symmetric sparse matrix assembled by stamps (duplicate entries add).
/// Only build via addEntry/addDiagonal; finalize() compresses to CSR.
class SparseSpd {
 public:
  explicit SparseSpd(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Stamp value at (i, j) and (j, i); i != j.
  void addOffDiagonal(std::size_t i, std::size_t j, double value);
  void addDiagonal(std::size_t i, double value);

  /// Compress triplets to CSR; further stamping is rejected.
  void finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  /// y = A x.
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;

  [[nodiscard]] double diagonal(std::size_t i) const;

  /// Read-only CSR views of the finalized matrix (throws before
  /// finalize()). Row r owns entries [rowPtr()[r], rowPtr()[r+1]); columns
  /// within a row are sorted and duplicate-free. Used by the multigrid
  /// smoother, the Galerkin coarse-operator product, and structure tests.
  [[nodiscard]] const std::vector<std::size_t>& rowPtr() const;
  [[nodiscard]] const std::vector<std::size_t>& cols() const;
  [[nodiscard]] const std::vector<double>& values() const;
  /// Stored entries of the finalized matrix (both triangles).
  [[nodiscard]] std::size_t nonZeros() const;

  /// Borrowed CSR view of the finalized matrix (throws before finalize()).
  [[nodiscard]] kernel::CsrView csrView() const;

 private:
  std::size_t n_;
  bool finalized_ = false;
  // Triplet storage during assembly (upper triangle + diagonal).
  std::vector<std::size_t> ti_, tj_;
  std::vector<double> tv_;
  // CSR after finalize (full matrix), plus the sliced-ELL repack the
  // dispatching multiply() hands to vector SpMV variants.
  std::vector<std::size_t> rowPtr_, col_;
  std::vector<double> val_;
  std::vector<double> diag_;
  kernel::SellMatrix sell_;
};

/// Fixed SPD linear operator z = M^{-1} r applied once per CG iteration.
/// Implementations must be deterministic and safe to apply concurrently
/// from multiple solves (no mutable per-apply state).
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  /// z = M^{-1} r. `z` is resized to match `r`; every element is written.
  virtual void apply(const std::vector<double>& r,
                     std::vector<double>& z) const = 0;
  /// Short static label for diagnostics ("jacobi", "multigrid").
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Diagonal (Jacobi) scaling: z_i = r_i / A_ii. The historical default.
class JacobiPreconditioner final : public Preconditioner {
 public:
  explicit JacobiPreconditioner(const SparseSpd& a) : a_(a) {}
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override;
  [[nodiscard]] const char* name() const override { return "jacobi"; }

 private:
  const SparseSpd& a_;
};

/// CG result. `status` distinguishes tolerance met, iteration budget
/// exhausted, and a non-finite right-hand side / residual (NanDetected);
/// on NanDetected `x` is the last finite iterate (all zeros when the
/// inputs themselves were poisoned).
struct CgResult {
  std::vector<double> x;
  int iterations = 0;
  double residualNorm = 0.0;
  bool converged = false;
  util::SolverStatus status = util::SolverStatus::MaxIterations;
  /// Structured view of the outcome (kernel "powergrid/cg").
  [[nodiscard]] util::Diagnostics diagnostics() const {
    util::Diagnostics d;
    d.status = status;
    d.iterations = iterations;
    d.residual = residualNorm;
    d.kernel = "powergrid/cg";
    return d;
  }
};

/// Solve A x = b with Jacobi-preconditioned CG. Never throws on numerical
/// failure (structural misuse — unfinalized matrix, size mismatch — still
/// throws); inspect `status` instead.
CgResult solveCg(const SparseSpd& a, const std::vector<double>& b,
                 double relTolerance = 1e-9, int maxIterations = 20000);

/// Solve A x = b with CG under an explicit preconditioner. The Jacobi
/// path of the default overload is bit-identical to passing a
/// JacobiPreconditioner here. A preconditioner breakdown (non-finite or
/// non-positive <r, M^{-1} r>) stops at the last finite iterate with
/// NanDetected instead of poisoning x.
CgResult solveCg(const SparseSpd& a, const std::vector<double>& b,
                 const Preconditioner& preconditioner,
                 double relTolerance = 1e-9, int maxIterations = 20000);

/// solveCg's iteration without its `powergrid/cg_solve` span and
/// `powergrid/cg_*` metrics, for a solve nested inside another one (the
/// multigrid coarsest level), which must not count as an outer CG solve.
CgResult solveCgUninstrumented(const SparseSpd& a, const std::vector<double>& b,
                               const Preconditioner& preconditioner,
                               double relTolerance, int maxIterations);

}  // namespace nano::powergrid
