#include "powergrid/solver.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "exec/exec.h"
#include "obs/obs.h"

namespace nano::powergrid {

namespace {
// Below this row count the launch overhead of a parallel region beats any
// gain from splitting the matrix-vector product.
constexpr std::size_t kParallelRows = 8192;
}  // namespace

SparseSpd::SparseSpd(std::size_t n) : n_(n) {
  if (n == 0) throw std::invalid_argument("SparseSpd: empty");
}

void SparseSpd::addOffDiagonal(std::size_t i, std::size_t j, double value) {
  if (finalized_) throw std::logic_error("SparseSpd: already finalized");
  if (i >= n_ || j >= n_ || i == j) throw std::out_of_range("SparseSpd: bad index");
  ti_.push_back(i);
  tj_.push_back(j);
  tv_.push_back(value);
}

void SparseSpd::addDiagonal(std::size_t i, double value) {
  if (finalized_) throw std::logic_error("SparseSpd: already finalized");
  if (i >= n_) throw std::out_of_range("SparseSpd: bad index");
  ti_.push_back(i);
  tj_.push_back(i);
  tv_.push_back(value);
}

void SparseSpd::finalize() {
  if (finalized_) return;
  // Count entries per row (off-diagonals stamped once become two entries).
  std::vector<std::size_t> counts(n_ + 1, 0);
  for (std::size_t k = 0; k < ti_.size(); ++k) {
    ++counts[ti_[k] + 1];
    if (ti_[k] != tj_[k]) ++counts[tj_[k] + 1];
  }
  rowPtr_.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) rowPtr_[i + 1] = rowPtr_[i] + counts[i + 1];
  col_.assign(rowPtr_[n_], 0);
  val_.assign(rowPtr_[n_], 0.0);
  std::vector<std::size_t> cursor(rowPtr_.begin(), rowPtr_.end() - 1);
  auto place = [&](std::size_t r, std::size_t c, double v) {
    col_[cursor[r]] = c;
    val_[cursor[r]] = v;
    ++cursor[r];
  };
  for (std::size_t k = 0; k < ti_.size(); ++k) {
    place(ti_[k], tj_[k], tv_[k]);
    if (ti_[k] != tj_[k]) place(tj_[k], ti_[k], tv_[k]);
  }
  ti_.clear();
  tj_.clear();
  tv_.clear();
  ti_.shrink_to_fit();
  tj_.shrink_to_fit();
  tv_.shrink_to_fit();

  // Merge duplicates within each row (sort by column, accumulate).
  std::vector<std::size_t> newRowPtr(n_ + 1, 0);
  std::size_t write = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t lo = rowPtr_[r], hi = rowPtr_[r + 1];
    std::vector<std::pair<std::size_t, double>> row;
    row.reserve(hi - lo);
    for (std::size_t k = lo; k < hi; ++k) row.emplace_back(col_[k], val_[k]);
    std::sort(row.begin(), row.end());
    std::size_t rowStart = write;
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (write > rowStart && col_[write - 1] == row[k].first) {
        val_[write - 1] += row[k].second;
      } else {
        col_[write] = row[k].first;
        val_[write] = row[k].second;
        ++write;
      }
    }
    newRowPtr[r + 1] = write;
  }
  rowPtr_ = std::move(newRowPtr);
  col_.resize(write);
  val_.resize(write);

  diag_.assign(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = rowPtr_[r]; k < rowPtr_[r + 1]; ++k) {
      if (col_[k] == r) diag_[r] = val_[k];
    }
  }
  finalized_ = true;
  sell_ = kernel::SellMatrix::fromCsr(csrView());
}

void SparseSpd::multiply(const std::vector<double>& x,
                         std::vector<double>& y) const {
  if (!finalized_) throw std::logic_error("SparseSpd: not finalized");
  // Reuse the caller's storage: every element is overwritten below, so a
  // zero-fill per call (the old y.assign) is pure waste inside CG loops.
  if (y.size() != n_) y.resize(n_);
  // Dispatch through the SpMV kernel family: scalar CSR reference, or the
  // sliced-ELL AVX2 variant when the active ISA is AVX2. Both compute each
  // row's sum whole with the CSR accumulation order, so the result is
  // bit-identical across variants and at any thread count or blocking.
  const kernel::CsrView view = csrView();
  const kernel::SpmvFn fn = kernel::spmvFamily().pick();
  auto rows = [&](std::size_t begin, std::size_t end) {
    fn(view, &sell_, x.data(), y.data(), begin, end);
  };
  if (n_ >= kParallelRows && exec::threadCount() > 1) {
    exec::parallelForBlocked(n_, rows, 2048);
  } else {
    rows(0, n_);
  }
}

double SparseSpd::diagonal(std::size_t i) const { return diag_.at(i); }

const std::vector<std::size_t>& SparseSpd::rowPtr() const {
  if (!finalized_) throw std::logic_error("SparseSpd: not finalized");
  return rowPtr_;
}

const std::vector<std::size_t>& SparseSpd::cols() const {
  if (!finalized_) throw std::logic_error("SparseSpd: not finalized");
  return col_;
}

const std::vector<double>& SparseSpd::values() const {
  if (!finalized_) throw std::logic_error("SparseSpd: not finalized");
  return val_;
}

std::size_t SparseSpd::nonZeros() const {
  if (!finalized_) throw std::logic_error("SparseSpd: not finalized");
  return val_.size();
}

kernel::CsrView SparseSpd::csrView() const {
  if (!finalized_) throw std::logic_error("SparseSpd: not finalized");
  return kernel::CsrView{n_, rowPtr_.data(), col_.data(), val_.data()};
}

void JacobiPreconditioner::apply(const std::vector<double>& r,
                                 std::vector<double>& z) const {
  if (z.size() != r.size()) z.resize(r.size());
  for (std::size_t i = 0; i < r.size(); ++i) z[i] = r[i] / a_.diagonal(i);
}

CgResult solveCg(const SparseSpd& a, const std::vector<double>& b,
                 double relTolerance, int maxIterations) {
  return solveCg(a, b, JacobiPreconditioner(a), relTolerance, maxIterations);
}

CgResult solveCg(const SparseSpd& a, const std::vector<double>& b,
                 const Preconditioner& preconditioner, double relTolerance,
                 int maxIterations) {
  NANO_OBS_SPAN("powergrid/cg_solve");
  CgResult res =
      solveCgUninstrumented(a, b, preconditioner, relTolerance, maxIterations);
  NANO_OBS_COUNT("powergrid/cg_solves", 1);
  NANO_OBS_COUNT("powergrid/cg_iterations", res.iterations);
  NANO_OBS_GAUGE("powergrid/cg_residual", res.residualNorm);
  if (!res.converged) NANO_OBS_COUNT("powergrid/cg_nonconverged", 1);
  if (res.status == util::SolverStatus::NanDetected) {
    NANO_OBS_COUNT("powergrid/cg_nan_detected", 1);
  }
  return res;
}

CgResult solveCgUninstrumented(const SparseSpd& a, const std::vector<double>& b,
                               const Preconditioner& preconditioner,
                               double relTolerance, int maxIterations) {
  if (!a.finalized()) throw std::logic_error("solveCg: matrix not finalized");
  const std::size_t n = a.size();
  if (b.size() != n) throw std::invalid_argument("solveCg: size mismatch");

  CgResult res;
  res.x.assign(n, 0.0);
  std::vector<double> r = b;
  std::vector<double> z(n), p(n), ap(n);

  auto dot = [](const std::vector<double>& u, const std::vector<double>& v) {
    double s = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i) s += u[i] * v[i];
    return s;
  };
  const double bNorm = std::sqrt(dot(b, b));

  // Every exit path below reports the same bookkeeping: iterations
  // consumed, the residual norm at exit, the convergence flag, and the
  // structured status.
  res.residualNorm = bNorm;
  res.converged = bNorm == 0.0;  // x = 0 is exact for b = 0
  res.status = res.converged ? util::SolverStatus::Converged
                             : util::SolverStatus::MaxIterations;

  // NaN/Inf guard on the model inputs: a poisoned rhs would otherwise
  // propagate through every inner product and come back as a "converged"
  // NaN <= threshold comparison being false forever.
  if (!std::isfinite(bNorm)) {
    res.converged = false;
    res.status = util::SolverStatus::NanDetected;
  } else if (!res.converged) {
    preconditioner.apply(r, z);
    p = z;
    double rz = dot(r, z);
    const double threshold = relTolerance * bNorm;

    for (int it = 0; it < maxIterations; ++it) {
      a.multiply(p, ap);
      const double alpha = rz / dot(p, ap);
      if (!std::isfinite(alpha)) {
        // Preconditioner breakdown (zero diagonal, a V-cycle returning
        // non-finite values) or a non-finite matrix entry: stop at the
        // last finite iterate instead of poisoning x.
        res.status = util::SolverStatus::NanDetected;
        break;
      }
      for (std::size_t i = 0; i < n; ++i) {
        res.x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
      }
      res.iterations = it + 1;
      res.residualNorm = std::sqrt(dot(r, r));
      if (!std::isfinite(res.residualNorm)) {
        res.status = util::SolverStatus::NanDetected;
        break;
      }
      if (res.residualNorm <= threshold) {
        res.converged = true;
        res.status = util::SolverStatus::Converged;
        break;
      }
      preconditioner.apply(r, z);
      const double rzNew = dot(r, z);
      const double beta = rzNew / rz;
      rz = rzNew;
      for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
  }
  return res;
}

}  // namespace nano::powergrid
