// Sliced-ELL (SELL-4) repacking of CSR sparse operators, plus the kernel
// families for the power-grid hot loops: SpMV and the red-black/four-color
// Gauss-Seidel sweep.
//
// Layout: rows are grouped into slices of 4 consecutive rows. Each slice
// stores the first `w` entries of every row slot-major (4 doubles per
// column-slot contiguous, exactly one AVX2 vector), where `w` is the
// shortest row in the slice; the remaining entries of longer rows go to a
// per-row overflow CSR evaluated scalar. A slice shorter than 4 rows keeps
// w = 0 and lives entirely in the overflow part. Column indices are int32
// so one 128-bit load feeds a vgatherdpd.
//
// Bit-reproducibility: the packed order preserves the CSR within-row entry
// order, every variant accumulates with separate mul and add/sub in that
// order (no FMA, no reassociation), and x-gathers are exact loads — so the
// AVX2 variants are bit-identical to the scalar CSR reference at any
// parallel blocking (each row's sum is computed whole by one lane).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernel/dispatch.h"

namespace nano::kernel {

/// Borrowed view of a finalized CSR matrix (row-sorted, duplicate-free).
struct CsrView {
  std::size_t n = 0;
  const std::size_t* rowPtr = nullptr;
  const std::size_t* col = nullptr;
  const double* val = nullptr;
};

/// Sliced-ELL repack of a CSR matrix (see file comment for the layout).
struct SellMatrix {
  static constexpr std::size_t kSlice = 4;

  std::size_t n = 0;
  std::vector<std::size_t> sliceOff;   ///< per-slice start into vals/cols
  std::vector<std::uint32_t> sliceW;   ///< common width per slice
  std::vector<double> vals;            ///< [sliceOff[s] + j*4 + lane]
  std::vector<std::int32_t> cols;
  std::vector<std::size_t> ovPtr;      ///< per-row overflow CSR
  std::vector<std::int32_t> ovCol;
  std::vector<double> ovVal;

  /// Repack a finalized CSR. Throws std::invalid_argument when the matrix
  /// is too large for int32 column indices.
  static SellMatrix fromCsr(const CsrView& a);
};

/// One smoother color bucket packed for vector sweeps: the off-diagonal
/// entries of each bucket row (diagonal removed, CSR order otherwise
/// preserved) in SELL-4 layout over bucket *slots*, plus the per-slot
/// target row and inverse diagonal.
struct GsColorPack {
  std::size_t count = 0;               ///< rows in the bucket
  std::vector<std::size_t> target;     ///< unknown index per slot
  std::vector<double> invDiag;         ///< 1/diag per slot
  std::vector<std::size_t> sliceOff;
  std::vector<std::uint32_t> sliceW;
  std::vector<double> vals;
  std::vector<std::int32_t> cols;
  std::vector<std::size_t> ovPtr;      ///< per-slot overflow
  std::vector<std::int32_t> ovCol;
  std::vector<double> ovVal;

  static GsColorPack fromBucket(const CsrView& a,
                                const std::vector<std::size_t>& bucket,
                                const std::vector<double>& invDiag);
};

/// y[r] = sum_k val[k]*x[col[k]] for rows [rowBegin, rowEnd). The scalar
/// CSR variant ignores `sell` (it may be null); the AVX2 variant reads the
/// SELL-4 pack and requires it.
using SpmvFn = void (*)(const CsrView&, const SellMatrix*, const double* x,
                        double* y, std::size_t rowBegin, std::size_t rowEnd);
const KernelFamily<SpmvFn>& spmvFamily();

/// Gauss-Seidel update of bucket slots [slotBegin, slotEnd):
/// x[target[k]] = (b[target[k]] - sum off-diag) * invDiag[k].
using GsFn = void (*)(const GsColorPack&, const double* b, double* x,
                      std::size_t slotBegin, std::size_t slotEnd);
const KernelFamily<GsFn>& gsFamily();

}  // namespace nano::kernel
