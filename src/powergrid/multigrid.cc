#include "powergrid/multigrid.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "exec/exec.h"
#include "kernel/sell.h"
#include "obs/obs.h"

namespace nano::powergrid {

namespace {
// Same gating philosophy as SparseSpd::multiply: below this many items a
// parallel region costs more than it saves.
constexpr std::size_t kParallelSmoothRows = 8192;

// The fixed V-cycle: coarsen until a level has at most kCoarseTarget
// unknowns (or kMaxLevels levels exist); a coarsest level of at most
// kDenseDirectLimit unknowns gets a dense Cholesky factorization at setup,
// a larger one an inner Jacobi-CG per V-cycle.
constexpr std::size_t kCoarseTarget = 512;
constexpr std::size_t kDenseDirectLimit = 1024;
constexpr std::size_t kMaxLevels = 16;
}  // namespace

bool GridTopology::canCoarsen() const {
  if (subdivisions >= 2 && subdivisions % 2 == 0) {
    return railsPerBump * (subdivisions / 2) >= 2;
  }
  if (subdivisions == 1 && railsPerBump % 2 == 0) return railsPerBump / 2 >= 2;
  return false;
}

GridTopology GridTopology::coarsened() const {
  if (!canCoarsen()) throw std::logic_error("GridTopology: cannot coarsen");
  if (subdivisions % 2 == 0) {
    return {tilesX, tilesY, subdivisions / 2, railsPerBump};
  }
  return {tilesX, tilesY, 1, railsPerBump / 2};
}

MeshIndex::MeshIndex(const GridTopology& topology) : topo_(topology) {
  if (topo_.tilesX < 1 || topo_.tilesY < 1 || topo_.subdivisions < 1 ||
      topo_.railsPerBump < 1 || topo_.bumpStep() < 2) {
    throw std::invalid_argument("MeshIndex: bad topology");
  }
  const int nx = topo_.nx();
  const int ny = topo_.ny();
  const int sub = topo_.subdivisions;
  const int bs = topo_.bumpStep();

  bumpRowCol_.assign(static_cast<std::size_t>(nx), -1);
  long offset = 0;
  for (int x = 0; x < nx; ++x) {
    bumpRowCol_[static_cast<std::size_t>(x)] = (x % bs == 0) ? -1 : offset++;
  }
  const std::size_t bumpRowUnknowns = static_cast<std::size_t>(offset);
  const std::size_t railRowUnknowns = static_cast<std::size_t>(nx);
  const std::size_t sparseRowUnknowns =
      static_cast<std::size_t>(topo_.tilesX * topo_.railsPerBump + 1);

  rowStart_.assign(static_cast<std::size_t>(ny), 0);
  std::size_t acc = 0;
  for (int y = 0; y < ny; ++y) {
    rowStart_[static_cast<std::size_t>(y)] = acc;
    if (y % sub != 0) {
      acc += sparseRowUnknowns;  // only vertical-rail crossings
    } else if (y % bs == 0) {
      acc += bumpRowUnknowns;  // full rail row minus the bumps
    } else {
      acc += railRowUnknowns;  // full rail row
    }
  }
  count_ = acc;
}

long MeshIndex::unknownAt(int x, int y) const {
  if (x < 0 || y < 0 || x >= topo_.nx() || y >= topo_.ny()) return -1;
  const int sub = topo_.subdivisions;
  if (y % sub != 0) {
    if (x % sub != 0) return -1;  // off-rail interior node
    return static_cast<long>(rowStart_[static_cast<std::size_t>(y)]) + x / sub;
  }
  if (y % topo_.bumpStep() == 0) {
    const long c = bumpRowCol_[static_cast<std::size_t>(x)];
    if (c < 0) return -1;  // bump: Dirichlet, not an unknown
    return static_cast<long>(rowStart_[static_cast<std::size_t>(y)]) + c;
  }
  return static_cast<long>(rowStart_[static_cast<std::size_t>(y)]) + x;
}

struct MultigridHierarchy::Level {
  Level(const GridTopology& t, MeshIndex i) : topo(t), index(std::move(i)) {}

  GridTopology topo;
  MeshIndex index;
  std::unique_ptr<SparseSpd> owned;  // null at level 0 (caller's matrix)
  const SparseSpd* a = nullptr;
  // One SELL-packed sweep structure per color bucket (off-diagonals plus
  // per-slot target/invDiag), built at setup so smooth() only dispatches;
  // empty on the coarsest level, which is never smoothed.
  // No two unknowns of one color couple (checked at setup), so each
  // bucket sweeps in parallel.
  std::vector<kernel::GsColorPack> colorPacks;
  // Transfer to the next-coarser level (unused on the coarsest). P is
  // stored fine-row CSR, R = scale * P^T coarse-row CSR so restriction is
  // a deterministic gather.
  bool hasDown = false;
  double scale = 0.0;
  std::vector<std::size_t> pRowPtr, pCol;
  std::vector<double> pVal;
  std::vector<std::size_t> rRowPtr, rCol;
  std::vector<double> rVal;
  std::string residualGauge;
};

struct MultigridHierarchy::DenseCholesky {
  std::size_t n = 0;
  std::vector<double> f;  // row-major; lower triangle holds L after factor()

  bool factor(const SparseSpd& a) {
    n = a.size();
    f.assign(n * n, 0.0);
    const auto& rp = a.rowPtr();
    const auto& cs = a.cols();
    const auto& vs = a.values();
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t m = rp[u]; m < rp[u + 1]; ++m) f[u * n + cs[m]] = vs[m];
    }
    for (std::size_t j = 0; j < n; ++j) {
      double d = f[j * n + j];
      for (std::size_t k = 0; k < j; ++k) d -= f[j * n + k] * f[j * n + k];
      if (!(d > 0.0) || !std::isfinite(d)) return false;
      const double lj = std::sqrt(d);
      f[j * n + j] = lj;
      for (std::size_t i = j + 1; i < n; ++i) {
        double s = f[i * n + j];
        for (std::size_t k = 0; k < j; ++k) s -= f[i * n + k] * f[j * n + k];
        f[i * n + j] = s / lj;
      }
    }
    return true;
  }

  void solve(const std::vector<double>& b, std::vector<double>& x) const {
    x.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      double s = b[i];
      for (std::size_t k = 0; k < i; ++k) s -= f[i * n + k] * x[k];
      x[i] = s / f[i * n + i];
    }
    for (std::size_t i = n; i-- > 0;) {
      double s = x[i];
      for (std::size_t k = i + 1; k < n; ++k) s -= f[k * n + i] * x[k];
      x[i] = s / f[i * n + i];
    }
  }
};

namespace {

// Linear interpolation on the waffle lattice from coarse (half-resolution)
// to fine coordinates: coarse node c lives at fine (2cx, 2cy); fine nodes
// at one even and one odd coordinate average their two flanking coarse
// nodes (along the rail for subdivision coarsening); odd-odd fine nodes
// (full-lattice coarsening only) average the four corners. Parents that
// land on a bump carry their weight to the Dirichlet zero and are dropped.
int parentsOf(const MeshIndex& coarse, int x, int y,
              std::array<std::pair<long, double>, 4>& out) {
  int cnt = 0;
  auto add = [&](int cx, int cy, double w) {
    const long cu = coarse.unknownAt(cx, cy);
    if (cu >= 0) out[static_cast<std::size_t>(cnt++)] = {cu, w};
  };
  const bool evenX = (x % 2) == 0;
  const bool evenY = (y % 2) == 0;
  if (evenX && evenY) {
    add(x / 2, y / 2, 1.0);
  } else if (!evenX && evenY) {
    add((x - 1) / 2, y / 2, 0.5);
    add((x + 1) / 2, y / 2, 0.5);
  } else if (evenX) {
    add(x / 2, (y - 1) / 2, 0.5);
    add(x / 2, (y + 1) / 2, 0.5);
  } else {
    add((x - 1) / 2, (y - 1) / 2, 0.25);
    add((x + 1) / 2, (y - 1) / 2, 0.25);
    add((x - 1) / 2, (y + 1) / 2, 0.25);
    add((x + 1) / 2, (y + 1) / 2, 0.25);
  }
  // Parents are appended in row-major (y, x) order, which is exactly
  // ascending unknown-index order, so the CSR rows built from this list
  // need no sort.
  return cnt;
}

}  // namespace

MultigridHierarchy::MultigridHierarchy(const SparseSpd& fineMatrix,
                                       const GridTopology& topology) {
  if (!fineMatrix.finalized()) {
    throw std::invalid_argument("MultigridHierarchy: matrix not finalized");
  }

  auto setupSmoother = [](Level& lvl) {
    const SparseSpd& a = *lvl.a;
    const std::size_t n = a.size();
    std::vector<double> invDiag(n);
    for (std::size_t i = 0; i < n; ++i) invDiag[i] = 1.0 / a.diagonal(i);
    // Rail-stencil levels are bipartite under node parity; the bilinear
    // (full-lattice) levels get 9-point Galerkin stencils and need the
    // four-coloring. Verify the coloring against the actual level
    // operator: a bucket sweeps in parallel only if it is decoupled.
    const auto& rp = a.rowPtr();
    const auto& cs = a.cols();
    for (const int nColors : {2, 4}) {
      std::vector<std::uint8_t> color(n, 0);
      const int sub = lvl.topo.subdivisions;
      for (int y = 0; y < lvl.topo.ny(); ++y) {
        const int step = (y % sub != 0) ? sub : 1;
        for (int x = 0; x < lvl.topo.nx(); x += step) {
          const long u = lvl.index.unknownAt(x, y);
          if (u < 0) continue;
          color[static_cast<std::size_t>(u)] = static_cast<std::uint8_t>(
              nColors == 2 ? ((x + y) & 1) : ((x & 1) | ((y & 1) << 1)));
        }
      }
      bool ok = true;
      for (std::size_t u = 0; u < n && ok; ++u) {
        for (std::size_t m = rp[u]; m < rp[u + 1]; ++m) {
          if (cs[m] != u && color[cs[m]] == color[u]) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) continue;
      std::vector<std::vector<std::size_t>> buckets(
          static_cast<std::size_t>(nColors));
      for (std::size_t u = 0; u < n; ++u) buckets[color[u]].push_back(u);
      const kernel::CsrView view = a.csrView();
      lvl.colorPacks.reserve(buckets.size());
      for (const auto& bucket : buckets) {
        lvl.colorPacks.push_back(
            kernel::GsColorPack::fromBucket(view, bucket, invDiag));
      }
      return;
    }
    throw std::logic_error(
        "MultigridHierarchy: no mesh coloring decouples the level operator");
  };

  {
    Level fine(topology, MeshIndex(topology));
    fine.a = &fineMatrix;
    if (fine.index.unknownCount() != fineMatrix.size()) {
      throw std::invalid_argument(
          "MultigridHierarchy: matrix size does not match topology");
    }
    levels_.push_back(std::move(fine));
  }

  while (levels_.size() < kMaxLevels && levels_.back().topo.canCoarsen() &&
         levels_.back().index.unknownCount() > kCoarseTarget) {
    const GridTopology coarseTopo = levels_.back().topo.coarsened();
    MeshIndex coarseIndex(coarseTopo);
    const std::size_t nc = coarseIndex.unknownCount();
    if (nc == 0) break;

    // Build P (fine-row CSR) and R = scale * P^T (coarse-row CSR).
    {
      Level& f = levels_.back();
      const std::size_t nf = f.index.unknownCount();
      f.scale = f.topo.subdivisions > 1 ? 0.5 : 0.25;
      f.pRowPtr.assign(nf + 1, 0);
      f.pCol.clear();
      f.pVal.clear();
      std::array<std::pair<long, double>, 4> parents{};
      const int sub = f.topo.subdivisions;
      for (int y = 0; y < f.topo.ny(); ++y) {
        const int step = (y % sub != 0) ? sub : 1;
        for (int x = 0; x < f.topo.nx(); x += step) {
          const long u = f.index.unknownAt(x, y);
          if (u < 0) continue;
          const int cnt = parentsOf(coarseIndex, x, y, parents);
          for (int k = 0; k < cnt; ++k) {
            f.pCol.push_back(
                static_cast<std::size_t>(parents[static_cast<std::size_t>(k)].first));
            f.pVal.push_back(parents[static_cast<std::size_t>(k)].second);
          }
          f.pRowPtr[static_cast<std::size_t>(u) + 1] = f.pCol.size();
        }
      }
      f.rRowPtr.assign(nc + 1, 0);
      for (const std::size_t c : f.pCol) ++f.rRowPtr[c + 1];
      for (std::size_t c = 0; c < nc; ++c) f.rRowPtr[c + 1] += f.rRowPtr[c];
      f.rCol.assign(f.pCol.size(), 0);
      f.rVal.assign(f.pCol.size(), 0.0);
      std::vector<std::size_t> cursor(f.rRowPtr.begin(), f.rRowPtr.end() - 1);
      for (std::size_t u = 0; u < nf; ++u) {
        for (std::size_t k = f.pRowPtr[u]; k < f.pRowPtr[u + 1]; ++k) {
          const std::size_t c = f.pCol[k];
          f.rCol[cursor[c]] = u;
          f.rVal[cursor[c]] = f.scale * f.pVal[k];
          ++cursor[c];
        }
      }
      f.hasDown = true;
    }

    // Galerkin coarse operator A_c = R A P, stamped from the upper
    // triangle of each coarse row in a fixed order (deterministic and
    // exactly symmetric because SparseSpd mirrors each off-diagonal).
    auto ac = std::make_unique<SparseSpd>(nc);
    {
      const Level& f = levels_.back();
      const SparseSpd& a = *f.a;
      const auto& arp = a.rowPtr();
      const auto& acs = a.cols();
      const auto& avs = a.values();
      std::vector<double> scratch(nc, 0.0);
      std::vector<char> seen(nc, 0);
      std::vector<std::size_t> touched;
      for (std::size_t ci = 0; ci < nc; ++ci) {
        touched.clear();
        for (std::size_t k = f.rRowPtr[ci]; k < f.rRowPtr[ci + 1]; ++k) {
          const std::size_t fi = f.rCol[k];
          const double wf = f.rVal[k];
          for (std::size_t m = arp[fi]; m < arp[fi + 1]; ++m) {
            const std::size_t g = acs[m];
            const double ag = wf * avs[m];
            for (std::size_t q = f.pRowPtr[g]; q < f.pRowPtr[g + 1]; ++q) {
              const std::size_t cj = f.pCol[q];
              if (!seen[cj]) {
                seen[cj] = 1;
                touched.push_back(cj);
              }
              scratch[cj] += ag * f.pVal[q];
            }
          }
        }
        std::sort(touched.begin(), touched.end());
        for (const std::size_t cj : touched) {
          if (cj == ci) {
            ac->addDiagonal(ci, scratch[cj]);
          } else if (cj > ci) {
            ac->addOffDiagonal(ci, cj, scratch[cj]);
          }
          scratch[cj] = 0.0;
          seen[cj] = 0;
        }
      }
      ac->finalize();
    }

    Level coarse(coarseTopo, std::move(coarseIndex));
    coarse.owned = std::move(ac);
    coarse.a = coarse.owned.get();
    levels_.push_back(std::move(coarse));
  }

  // apply() smooths every level but the coarsest, which coarseSolve()
  // solves directly, so only those levels get a colouring and its packs.
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    if (l + 1 < levels_.size()) setupSmoother(levels_[l]);
    levels_[l].residualGauge =
        "powergrid/mg_l" + std::to_string(l) + "_residual";
  }

  const std::size_t coarsest = levels_.back().index.unknownCount();
  if (coarsest <= kDenseDirectLimit) {
    auto factor = std::make_unique<DenseCholesky>();
    if (factor->factor(*levels_.back().a)) coarseFactor_ = std::move(factor);
  }
  NANO_OBS_GAUGE("powergrid/mg_levels", static_cast<double>(levels_.size()));
}

MultigridHierarchy::~MultigridHierarchy() = default;

int MultigridHierarchy::levelCount() const {
  return static_cast<int>(levels_.size());
}

std::size_t MultigridHierarchy::levelUnknowns(int level) const {
  return levels_.at(static_cast<std::size_t>(level)).index.unknownCount();
}

const GridTopology& MultigridHierarchy::levelTopology(int level) const {
  return levels_.at(static_cast<std::size_t>(level)).topo;
}

double MultigridHierarchy::restrictionScale(int level) const {
  const Level& lvl = levels_.at(static_cast<std::size_t>(level));
  if (!lvl.hasDown) {
    throw std::out_of_range("MultigridHierarchy: no transfer at level");
  }
  return lvl.scale;
}

namespace {

void restrictInto(const std::vector<std::size_t>& rRowPtr,
                  const std::vector<std::size_t>& rCol,
                  const std::vector<double>& rVal,
                  const std::vector<double>& fine,
                  std::vector<double>& coarse) {
  const std::size_t nc = rRowPtr.size() - 1;
  auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t ci = lo; ci < hi; ++ci) {
      double s = 0.0;
      for (std::size_t k = rRowPtr[ci]; k < rRowPtr[ci + 1]; ++k) {
        s += rVal[k] * fine[rCol[k]];
      }
      coarse[ci] = s;
    }
  };
  if (nc >= kParallelSmoothRows && exec::threadCount() > 1) {
    exec::parallelForBlocked(nc, body, 2048);
  } else {
    body(0, nc);
  }
}

void prolongAddInto(const std::vector<std::size_t>& pRowPtr,
                    const std::vector<std::size_t>& pCol,
                    const std::vector<double>& pVal,
                    const std::vector<double>& coarse,
                    std::vector<double>& fine) {
  const std::size_t nf = pRowPtr.size() - 1;
  auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t u = lo; u < hi; ++u) {
      double s = 0.0;
      for (std::size_t k = pRowPtr[u]; k < pRowPtr[u + 1]; ++k) {
        s += pVal[k] * coarse[pCol[k]];
      }
      fine[u] += s;
    }
  };
  if (nf >= kParallelSmoothRows && exec::threadCount() > 1) {
    exec::parallelForBlocked(nf, body, 2048);
  } else {
    body(0, nf);
  }
}

}  // namespace

void MultigridHierarchy::applyRestriction(int level,
                                          const std::vector<double>& fine,
                                          std::vector<double>& coarse) const {
  const Level& lvl = levels_.at(static_cast<std::size_t>(level));
  if (!lvl.hasDown) {
    throw std::out_of_range("MultigridHierarchy: no transfer at level");
  }
  if (fine.size() != lvl.index.unknownCount()) {
    throw std::invalid_argument("applyRestriction: size mismatch");
  }
  coarse.assign(lvl.rRowPtr.size() - 1, 0.0);
  restrictInto(lvl.rRowPtr, lvl.rCol, lvl.rVal, fine, coarse);
}

void MultigridHierarchy::applyProlongation(int level,
                                           const std::vector<double>& coarse,
                                           std::vector<double>& fine) const {
  const Level& lvl = levels_.at(static_cast<std::size_t>(level));
  if (!lvl.hasDown) {
    throw std::out_of_range("MultigridHierarchy: no transfer at level");
  }
  if (coarse.size() != lvl.rRowPtr.size() - 1) {
    throw std::invalid_argument("applyProlongation: size mismatch");
  }
  fine.assign(lvl.index.unknownCount(), 0.0);
  prolongAddInto(lvl.pRowPtr, lvl.pCol, lvl.pVal, coarse, fine);
}

void MultigridHierarchy::smooth(const Level& lvl, const std::vector<double>& b,
                                std::vector<double>& x, bool reversed) const {
  NANO_OBS_TIMER("powergrid/mg_smooth");
  auto sweepBucket = [&](const kernel::GsColorPack& pack) {
    const kernel::GsFn fn = kernel::gsFamily().pick();
    auto body = [&](std::size_t lo, std::size_t hi) {
      fn(pack, b.data(), x.data(), lo, hi);
    };
    // Safe and deterministic: no two nodes of one color couple (checked
    // at setup), so the bucket's writes touch values no other lane
    // reads, and every variant computes each slot's update whole.
    if (pack.count >= kParallelSmoothRows && exec::threadCount() > 1) {
      exec::parallelForBlocked(pack.count, body, 2048);
    } else {
      body(0, pack.count);
    }
  };
  if (!reversed) {
    for (const auto& pack : lvl.colorPacks) sweepBucket(pack);
  } else {
    // The reversed color order makes pre+post smoothing adjoint pairs,
    // keeping the V-cycle symmetric (required for CG).
    for (auto it = lvl.colorPacks.rbegin(); it != lvl.colorPacks.rend(); ++it) {
      sweepBucket(*it);
    }
  }
}

void MultigridHierarchy::coarseSolve(const std::vector<double>& b,
                                     std::vector<double>& x) const {
  NANO_OBS_TIMER("powergrid/mg_coarse_solve");
  if (coarseFactor_) {
    coarseFactor_->solve(b, x);
    return;
  }
  // Uninstrumented, so inner solves never count in powergrid/cg_*.
  const SparseSpd& a = *levels_.back().a;
  CgResult inner = solveCgUninstrumented(a, b, JacobiPreconditioner(a), 1e-10,
                                         static_cast<int>(4 * a.size()) + 100);
  x = std::move(inner.x);
}

void MultigridHierarchy::apply(const std::vector<double>& r,
                               std::vector<double>& z) const {
  const std::size_t levelN = levels_.size();
  if (r.size() != levels_[0].index.unknownCount()) {
    throw std::invalid_argument("MultigridHierarchy::apply: size mismatch");
  }
  if (levelN == 1) {
    coarseSolve(r, z);
    NANO_OBS_COUNT("powergrid/mg_vcycles", 1);
    return;
  }
  // All scratch is per-call so concurrent applies (the parallel figure
  // sweeps solve many grids at once against one shared hierarchy) are safe.
  std::vector<std::vector<double>> b(levelN), x(levelN);
  std::vector<double> t;
  b[0] = r;
  for (std::size_t l = 0; l + 1 < levelN; ++l) {
    const Level& lvl = levels_[l];
    const std::size_t n = lvl.index.unknownCount();
    x[l].assign(n, 0.0);
    smooth(lvl, b[l], x[l], false);
    t.resize(n);
    lvl.a->multiply(x[l], t);
    for (std::size_t i = 0; i < n; ++i) t[i] = b[l][i] - t[i];
    if (obs::enabled()) {
      double s = 0.0;
      for (const double v : t) s += v * v;
      NANO_OBS_GAUGE(lvl.residualGauge, std::sqrt(s));
    }
    b[l + 1].assign(levels_[l + 1].index.unknownCount(), 0.0);
    restrictInto(lvl.rRowPtr, lvl.rCol, lvl.rVal, t, b[l + 1]);
  }
  x[levelN - 1].assign(levels_[levelN - 1].index.unknownCount(), 0.0);
  coarseSolve(b[levelN - 1], x[levelN - 1]);
  for (std::size_t l = levelN - 1; l-- > 0;) {
    const Level& lvl = levels_[l];
    prolongAddInto(lvl.pRowPtr, lvl.pCol, lvl.pVal, x[l + 1], x[l]);
    smooth(lvl, b[l], x[l], true);
  }
  z = std::move(x[0]);
  NANO_OBS_COUNT("powergrid/mg_vcycles", 1);
}

}  // namespace nano::powergrid
