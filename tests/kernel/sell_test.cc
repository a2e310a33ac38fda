// SELL-4 repacking and the sparse kernel families: the AVX2 SpMV and
// Gauss-Seidel variants must be bit-identical to the scalar CSR
// references for any matrix shape, any row blocking, and any slice
// remainder, because the multigrid smoother's convergence history is part
// of the repo's byte-reproducibility contract.
#include "kernel/sell.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace nano::kernel {
namespace {

struct IsaGuard {
  Isa saved = activeIsa();
  ~IsaGuard() { setActiveIsa(saved); }
};

/// Owning CSR used to build test views.
struct Csr {
  std::size_t n = 0;
  std::vector<std::size_t> rowPtr;
  std::vector<std::size_t> col;
  std::vector<double> val;

  [[nodiscard]] CsrView view() const { return {n, rowPtr.data(), col.data(), val.data()}; }
};

/// Random sparse matrix with strongly varying row lengths (including empty
/// rows) so slices mix common-width and overflow entries.
Csr randomCsr(std::size_t n, util::Rng& rng, int maxRowLen = 9) {
  Csr a;
  a.n = n;
  a.rowPtr.push_back(0);
  for (std::size_t r = 0; r < n; ++r) {
    const int len = rng.uniformInt(0, maxRowLen);
    std::size_t c = 0;
    for (int k = 0; k < len && c < n; ++k) {
      c += static_cast<std::size_t>(rng.uniformInt(1, 3));
      if (c > n) break;
      a.col.push_back(c - 1);
      a.val.push_back(rng.uniform(-2.0, 2.0));
    }
    a.rowPtr.push_back(a.col.size());
  }
  return a;
}

std::vector<double> randomVector(std::size_t n, util::Rng& rng) {
  std::vector<double> x(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

TEST(SellSpmv, Avx2MatchesScalarCsrForAnyShapeAndBlocking) {
  util::Rng rng(1234);
  IsaGuard guard;
  for (const std::size_t n : {1u, 3u, 4u, 7u, 16u, 33u, 257u}) {
    const Csr a = randomCsr(n, rng);
    const SellMatrix sell = SellMatrix::fromCsr(a.view());
    const std::vector<double> x = randomVector(n, rng);

    setActiveIsa(Isa::Scalar);
    std::vector<double> ref(n);
    spmvFamily().pick()(a.view(), &sell, x.data(), ref.data(), 0, n);
    EXPECT_EQ(spmvFamily().pickedName(), "spmv_csr_scalar");

    if (setActiveIsa(Isa::Avx2) != Isa::Avx2) continue;
    EXPECT_EQ(spmvFamily().pickedName(), "spmv_sell_avx2");
    const SpmvFn fn = spmvFamily().pick();
    // Whole range plus deliberately unaligned blockings: the variant must
    // give the same bytes however parallelForBlocked splits the rows.
    for (const std::size_t block : {n, std::size_t{1}, std::size_t{5}}) {
      std::vector<double> y(n);
      for (std::size_t begin = 0; begin < n; begin += block) {
        fn(a.view(), &sell, x.data(), y.data(), begin,
           std::min(begin + block, n));
      }
      EXPECT_EQ(y, ref) << "n=" << n << " block=" << block;
    }
  }
}

TEST(SellGs, Avx2SweepMatchesScalarForAnyBucketAndBlocking) {
  // A color bucket is an independent set by construction (the smoother
  // colors the graph before packing), so build a bipartite matrix: even
  // rows couple only to odd columns and vice versa, plus a diagonal.
  // Without that property a sequential in-color sweep would legitimately
  // differ from a vector one.
  util::Rng rng(5678);
  IsaGuard guard;
  for (const std::size_t n : {2u, 5u, 12u, 64u, 129u}) {
    Csr a;
    a.n = n;
    a.rowPtr.push_back(0);
    std::vector<double> invDiag(n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        const bool opposite = (c % 2) != (r % 2);
        if (c == r) {
          a.col.push_back(c);
          a.val.push_back(10.0 + rng.uniform());
        } else if (opposite && rng.uniform() < 0.3) {
          a.col.push_back(c);
          a.val.push_back(rng.uniform(-2.0, 2.0));
        }
      }
      a.rowPtr.push_back(a.col.size());
      invDiag[r] = 1.0 / (10.0 + rng.uniform());
    }
    // Red-black bucket: the even rows form an independent set here.
    std::vector<std::size_t> bucket;
    for (std::size_t r = 0; r < n; r += 2) bucket.push_back(r);
    const GsColorPack pack = GsColorPack::fromBucket(a.view(), bucket, invDiag);
    ASSERT_EQ(pack.count, bucket.size());

    const std::vector<double> b = randomVector(n, rng);
    const std::vector<double> x0 = randomVector(n, rng);

    setActiveIsa(Isa::Scalar);
    std::vector<double> ref = x0;
    gsFamily().pick()(pack, b.data(), ref.data(), 0, pack.count);

    if (setActiveIsa(Isa::Avx2) != Isa::Avx2) continue;
    EXPECT_EQ(gsFamily().pickedName(), "gs_sell_avx2");
    const GsFn fn = gsFamily().pick();
    for (const std::size_t block : {pack.count, std::size_t{1}, std::size_t{3}}) {
      std::vector<double> x = x0;
      for (std::size_t begin = 0; begin < pack.count; begin += block) {
        fn(pack, b.data(), x.data(), begin,
           std::min(begin + block, pack.count));
      }
      EXPECT_EQ(x, ref) << "n=" << n << " block=" << block;
    }
  }
}

TEST(SellMatrixPack, PreservesEveryEntryOnce) {
  // SpMV through the pack on the all-ones vector equals the row sums of
  // the CSR, entry for entry, for shapes around the slice boundary.
  util::Rng rng(7);
  for (const std::size_t n : {1u, 4u, 5u, 8u, 9u}) {
    const Csr a = randomCsr(n, rng);
    const SellMatrix sell = SellMatrix::fromCsr(a.view());
    EXPECT_EQ(sell.n, n);
    std::vector<double> ones(n, 1.0);
    std::vector<double> y(n);
    IsaGuard guard;
    setActiveIsa(Isa::Scalar);
    // The scalar CSR variant ignores the pack; use it as ground truth.
    spmvFamily().pick()(a.view(), &sell, ones.data(), y.data(), 0, n);
    for (std::size_t r = 0; r < n; ++r) {
      double sum = 0.0;
      for (std::size_t k = a.rowPtr[r]; k < a.rowPtr[r + 1]; ++k) {
        sum += a.val[k];
      }
      EXPECT_EQ(y[r], sum);
    }
  }
}

}  // namespace
}  // namespace nano::kernel
