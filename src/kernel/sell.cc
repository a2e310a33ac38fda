#include "kernel/sell.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace nano::kernel {

namespace {

constexpr std::size_t kS = SellMatrix::kSlice;

void checkIndexWidth(std::size_t n) {
  if (n > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw std::invalid_argument("SellMatrix: matrix too large for int32 cols");
  }
}

}  // namespace

SellMatrix SellMatrix::fromCsr(const CsrView& a) {
  checkIndexWidth(a.n);
  SellMatrix s;
  s.n = a.n;
  const std::size_t nSlices = (a.n + kS - 1) / kS;
  s.sliceOff.assign(nSlices + 1, 0);
  s.sliceW.assign(nSlices, 0);
  s.ovPtr.assign(a.n + 1, 0);
  for (std::size_t sl = 0; sl < nSlices; ++sl) {
    const std::size_t r0 = sl * kS, r1 = std::min(a.n, r0 + kS);
    std::size_t w = std::numeric_limits<std::size_t>::max();
    for (std::size_t r = r0; r < r1; ++r) {
      w = std::min(w, a.rowPtr[r + 1] - a.rowPtr[r]);
    }
    if (r1 - r0 < kS) w = 0;  // tail slice: entirely via overflow
    s.sliceW[sl] = static_cast<std::uint32_t>(w);
    s.sliceOff[sl + 1] = s.sliceOff[sl] + w * kS;
    for (std::size_t r = r0; r < r1; ++r) {
      s.ovPtr[r + 1] = (a.rowPtr[r + 1] - a.rowPtr[r]) - w;
    }
  }
  for (std::size_t r = 0; r < a.n; ++r) s.ovPtr[r + 1] += s.ovPtr[r];
  s.vals.assign(s.sliceOff[nSlices], 0.0);
  s.cols.assign(s.sliceOff[nSlices], 0);
  s.ovVal.resize(s.ovPtr[a.n]);
  s.ovCol.resize(s.ovPtr[a.n]);
  for (std::size_t sl = 0; sl < nSlices; ++sl) {
    const std::size_t r0 = sl * kS, r1 = std::min(a.n, r0 + kS);
    const std::size_t w = s.sliceW[sl];
    for (std::size_t r = r0; r < r1; ++r) {
      const std::size_t lane = r - r0;
      for (std::size_t j = 0; j < w; ++j) {
        s.vals[s.sliceOff[sl] + j * kS + lane] = a.val[a.rowPtr[r] + j];
        s.cols[s.sliceOff[sl] + j * kS + lane] =
            static_cast<std::int32_t>(a.col[a.rowPtr[r] + j]);
      }
      std::size_t o = s.ovPtr[r];
      for (std::size_t j = w; j < a.rowPtr[r + 1] - a.rowPtr[r]; ++j, ++o) {
        s.ovVal[o] = a.val[a.rowPtr[r] + j];
        s.ovCol[o] = static_cast<std::int32_t>(a.col[a.rowPtr[r] + j]);
      }
    }
  }
  return s;
}

GsColorPack GsColorPack::fromBucket(const CsrView& a,
                                    const std::vector<std::size_t>& bucket,
                                    const std::vector<double>& invDiag) {
  checkIndexWidth(a.n);
  GsColorPack p;
  p.count = bucket.size();
  p.target = bucket;
  p.invDiag.resize(p.count);
  for (std::size_t k = 0; k < p.count; ++k) p.invDiag[k] = invDiag[bucket[k]];

  // Off-diagonal entries per slot, CSR order with the diagonal removed.
  std::vector<std::size_t> offCount(p.count);
  for (std::size_t k = 0; k < p.count; ++k) {
    const std::size_t u = bucket[k];
    std::size_t cnt = 0;
    for (std::size_t m = a.rowPtr[u]; m < a.rowPtr[u + 1]; ++m) {
      if (a.col[m] != u) ++cnt;
    }
    offCount[k] = cnt;
  }
  const std::size_t nSlices = (p.count + kS - 1) / kS;
  p.sliceOff.assign(nSlices + 1, 0);
  p.sliceW.assign(nSlices, 0);
  p.ovPtr.assign(p.count + 1, 0);
  for (std::size_t sl = 0; sl < nSlices; ++sl) {
    const std::size_t k0 = sl * kS, k1 = std::min(p.count, k0 + kS);
    std::size_t w = std::numeric_limits<std::size_t>::max();
    for (std::size_t k = k0; k < k1; ++k) w = std::min(w, offCount[k]);
    if (k1 - k0 < kS) w = 0;
    p.sliceW[sl] = static_cast<std::uint32_t>(w);
    p.sliceOff[sl + 1] = p.sliceOff[sl] + w * kS;
    for (std::size_t k = k0; k < k1; ++k) p.ovPtr[k + 1] = offCount[k] - w;
  }
  for (std::size_t k = 0; k < p.count; ++k) p.ovPtr[k + 1] += p.ovPtr[k];
  p.vals.assign(p.sliceOff[nSlices], 0.0);
  p.cols.assign(p.sliceOff[nSlices], 0);
  p.ovVal.resize(p.ovPtr[p.count]);
  p.ovCol.resize(p.ovPtr[p.count]);
  for (std::size_t sl = 0; sl < nSlices; ++sl) {
    const std::size_t k0 = sl * kS, k1 = std::min(p.count, k0 + kS);
    const std::size_t w = p.sliceW[sl];
    for (std::size_t k = k0; k < k1; ++k) {
      const std::size_t lane = k - k0;
      const std::size_t u = bucket[k];
      std::size_t j = 0;
      std::size_t o = p.ovPtr[k];
      for (std::size_t m = a.rowPtr[u]; m < a.rowPtr[u + 1]; ++m) {
        if (a.col[m] == u) continue;
        if (j < w) {
          p.vals[p.sliceOff[sl] + j * kS + lane] = a.val[m];
          p.cols[p.sliceOff[sl] + j * kS + lane] =
              static_cast<std::int32_t>(a.col[m]);
        } else {
          p.ovVal[o] = a.val[m];
          p.ovCol[o] = static_cast<std::int32_t>(a.col[m]);
          ++o;
        }
        ++j;
      }
    }
  }
  return p;
}

namespace {

// ---- SpMV variants --------------------------------------------------------

void spmvCsrScalar(const CsrView& a, const SellMatrix*, const double* x,
                   double* y, std::size_t rowBegin, std::size_t rowEnd) {
  for (std::size_t r = rowBegin; r < rowEnd; ++r) {
    double sum = 0.0;
    for (std::size_t k = a.rowPtr[r]; k < a.rowPtr[r + 1]; ++k) {
      sum += a.val[k] * x[a.col[k]];
    }
    y[r] = sum;
  }
}

#if defined(__x86_64__) || defined(__i386__)
// Full-lane gather through the masked form with a zeroed source: the
// plain _mm256_i32gather_pd intrinsic expands _mm256_undefined_pd(),
// which GCC 12 flags as maybe-uninitialized under -Werror. With an
// all-ones mask every lane is written by the gather, so the source never
// reaches the result and the bytes are identical.
__attribute__((target("avx2"))) inline __m256d gatherPd(const double* base,
                                                        __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

// Scalar evaluation of one row straight from the packed layout: the common
// part in slot order then the overflow entries — the same accumulation
// order as the CSR reference, used for rows whose slice is not fully
// covered by [rowBegin, rowEnd).
inline double sellRowScalar(const SellMatrix& s, const double* x,
                            std::size_t r) {
  const std::size_t sl = r / kS, lane = r % kS;
  const std::size_t w = s.sliceW[sl];
  const double* v = s.vals.data() + s.sliceOff[sl];
  const std::int32_t* c = s.cols.data() + s.sliceOff[sl];
  double sum = 0.0;
  for (std::size_t j = 0; j < w; ++j) {
    sum += v[j * kS + lane] * x[c[j * kS + lane]];
  }
  for (std::size_t k = s.ovPtr[r]; k < s.ovPtr[r + 1]; ++k) {
    sum += s.ovVal[k] * x[s.ovCol[k]];
  }
  return sum;
}

__attribute__((target("avx2"))) void spmvSellAvx2(const CsrView&,
                                                  const SellMatrix* sellPtr,
                                                  const double* x, double* y,
                                                  std::size_t rowBegin,
                                                  std::size_t rowEnd) {
  const SellMatrix& s = *sellPtr;
  std::size_t r = rowBegin;
  for (; r < rowEnd && r % kS != 0; ++r) y[r] = sellRowScalar(s, x, r);
  for (; r + kS <= rowEnd; r += kS) {
    const std::size_t sl = r / kS;
    const std::size_t w = s.sliceW[sl];
    const double* v = s.vals.data() + s.sliceOff[sl];
    const std::int32_t* c = s.cols.data() + s.sliceOff[sl];
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < w; ++j) {
      const __m256d vv = _mm256_loadu_pd(v + j * kS);
      const __m128i cc =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + j * kS));
      const __m256d xv = gatherPd(x, cc);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(vv, xv));
    }
    alignas(32) double sums[kS];
    _mm256_store_pd(sums, acc);
    for (std::size_t lane = 0; lane < kS; ++lane) {
      const std::size_t row = r + lane;
      double sum = sums[lane];
      for (std::size_t k = s.ovPtr[row]; k < s.ovPtr[row + 1]; ++k) {
        sum += s.ovVal[k] * x[s.ovCol[k]];
      }
      y[row] = sum;
    }
  }
  for (; r < rowEnd; ++r) y[r] = sellRowScalar(s, x, r);
}
#endif

// ---- Gauss-Seidel sweep variants ------------------------------------------

void gsScalar(const GsColorPack& p, const double* b, double* x,
              std::size_t slotBegin, std::size_t slotEnd) {
  for (std::size_t k = slotBegin; k < slotEnd; ++k) {
    const std::size_t sl = k / kS, lane = k % kS;
    const std::size_t w = p.sliceW[sl];
    const double* v = p.vals.data() + p.sliceOff[sl];
    const std::int32_t* c = p.cols.data() + p.sliceOff[sl];
    double s = b[p.target[k]];
    for (std::size_t j = 0; j < w; ++j) {
      s -= v[j * kS + lane] * x[c[j * kS + lane]];
    }
    for (std::size_t m = p.ovPtr[k]; m < p.ovPtr[k + 1]; ++m) {
      s -= p.ovVal[m] * x[p.ovCol[m]];
    }
    x[p.target[k]] = s * p.invDiag[k];
  }
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void gsSellAvx2(const GsColorPack& p,
                                                const double* b, double* x,
                                                std::size_t slotBegin,
                                                std::size_t slotEnd) {
  std::size_t k = slotBegin;
  if (k % kS != 0) {
    const std::size_t stop = std::min(slotEnd, (k / kS + 1) * kS);
    gsScalar(p, b, x, k, stop);
    k = stop;
  }
  for (; k + kS <= slotEnd; k += kS) {
    const std::size_t sl = k / kS;
    const std::size_t w = p.sliceW[sl];
    const double* v = p.vals.data() + p.sliceOff[sl];
    const std::int32_t* c = p.cols.data() + p.sliceOff[sl];
    __m256d acc = _mm256_set_pd(b[p.target[k + 3]], b[p.target[k + 2]],
                                b[p.target[k + 1]], b[p.target[k]]);
    for (std::size_t j = 0; j < w; ++j) {
      const __m256d vv = _mm256_loadu_pd(v + j * kS);
      const __m128i cc =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(c + j * kS));
      const __m256d xv = gatherPd(x, cc);
      acc = _mm256_sub_pd(acc, _mm256_mul_pd(vv, xv));
    }
    alignas(32) double sums[kS];
    _mm256_store_pd(sums, acc);
    for (std::size_t lane = 0; lane < kS; ++lane) {
      const std::size_t slot = k + lane;
      double s = sums[lane];
      for (std::size_t m = p.ovPtr[slot]; m < p.ovPtr[slot + 1]; ++m) {
        s -= p.ovVal[m] * x[p.ovCol[m]];
      }
      x[p.target[slot]] = s * p.invDiag[slot];
    }
  }
  if (k < slotEnd) gsScalar(p, b, x, k, slotEnd);
}
#else
// No AVX2 code off x86; activeIsa() is always Scalar there.
constexpr SpmvFn spmvSellAvx2 = nullptr;
constexpr GsFn gsSellAvx2 = nullptr;
#endif

}  // namespace

const KernelFamily<SpmvFn>& spmvFamily() {
  static const auto* family = new KernelFamily<SpmvFn>(
      "spmv", "spmv_csr_scalar", spmvCsrScalar, "spmv_sell_avx2",
      spmvSellAvx2);
  return *family;
}

const KernelFamily<GsFn>& gsFamily() {
  static const auto* family = new KernelFamily<GsFn>(
      "gs", "gs_sell_scalar", gsScalar, "gs_sell_avx2", gsSellAvx2);
  return *family;
}

}  // namespace nano::kernel
