#include "powergrid/grid_model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <tuple>

#include "obs/obs.h"

namespace nano::powergrid {

namespace {
// Below this many unknowns Jacobi-CG wins outright (no setup cost, and the
// small meshes converge in a few hundred iterations anyway); above it the
// V-cycle's mesh-independent convergence pays for itself.
constexpr std::size_t kAutoMultigridThreshold = 32768;

constexpr double kRelTolerance = 1e-10;
constexpr int kMaxIterations = 20000;

void validateConfig(const GridConfig& cfg) {
  if (cfg.railPitch <= 0 || cfg.bumpPitch < cfg.railPitch ||
      cfg.railWidth <= 0 || cfg.tilesX < 1 || cfg.tilesY < 1 ||
      cfg.subdivisions < 2) {
    throw std::invalid_argument("solveGrid: bad config");
  }
}
}  // namespace

GridTopology gridTopology(const GridConfig& cfg) {
  validateConfig(cfg);
  const int railsPerBump =
      std::max(1, static_cast<int>(std::round(cfg.bumpPitch / cfg.railPitch)));
  return GridTopology{cfg.tilesX, cfg.tilesY, cfg.subdivisions, railsPerBump};
}

namespace {

SparseSpd buildUnitLaplacian(const GridTopology& topo, const MeshIndex& index) {
  const std::size_t n = index.unknownCount();
  if (n == 0) throw std::invalid_argument("solveGrid: no unknowns");
  SparseSpd a(n);
  const int nx = topo.nx();
  const int ny = topo.ny();
  const int sub = topo.subdivisions;

  auto stampEdge = [&](long u, long v) {
    if (u < 0 && v < 0) return;  // bump-to-bump: no unknown on either end
    if (u >= 0) a.addDiagonal(static_cast<std::size_t>(u), 1.0);
    if (v >= 0) a.addDiagonal(static_cast<std::size_t>(v), 1.0);
    if (u >= 0 && v >= 0) {
      a.addOffDiagonal(static_cast<std::size_t>(u), static_cast<std::size_t>(v),
                       -1.0);
    }
  };

  for (int y = 0; y < ny; ++y) {
    const bool xRail = y % sub == 0;
    for (int x = 0; x < nx; ++x) {
      const bool yRail = x % sub == 0;
      if (!xRail && !yRail) continue;
      if (xRail && x + 1 < nx) {
        stampEdge(index.unknownAt(x, y), index.unknownAt(x + 1, y));
      }
      if (yRail && y + 1 < ny) {
        stampEdge(index.unknownAt(x, y), index.unknownAt(x, y + 1));
      }
    }
  }
  a.finalize();
  return a;
}

}  // namespace

GridModel::GridModel(const GridTopology& topology)
    : topo_(topology),
      index_(topology),
      laplacian_(buildUnitLaplacian(topology, index_)) {}

const MultigridHierarchy& GridModel::hierarchy() const {
  std::call_once(hierarchyOnce_, [this] {
    hierarchy_ = std::make_unique<MultigridHierarchy>(laplacian_, topo_);
  });
  return *hierarchy_;
}

namespace {
using TopologyKey = std::tuple<int, int, int, int>;

std::mutex& cacheMutex() {
  static std::mutex m;
  return m;
}

std::map<TopologyKey, std::shared_ptr<const GridModel>>& cacheMap() {
  static std::map<TopologyKey, std::shared_ptr<const GridModel>> cache;
  return cache;
}

// A sweep touches a handful of topologies; anything past this is churn
// from pathological test configs, so start over rather than grow forever.
constexpr std::size_t kCacheCapacity = 16;
}  // namespace

std::shared_ptr<const GridModel> GridModel::forConfig(const GridConfig& cfg) {
  const GridTopology topo = gridTopology(cfg);
  const TopologyKey key{topo.tilesX, topo.tilesY, topo.subdivisions,
                        topo.railsPerBump};
  // Build under the lock: concurrent first requests for one topology (the
  // parallel Figure 5 sweep) must produce exactly one assembly.
  std::lock_guard<std::mutex> lock(cacheMutex());
  auto& cache = cacheMap();
  if (const auto it = cache.find(key); it != cache.end()) {
    NANO_OBS_COUNT("powergrid/grid_assembly_reuses", 1);
    return it->second;
  }
  if (cache.size() >= kCacheCapacity) cache.clear();
  NANO_OBS_COUNT("powergrid/grid_assemblies", 1);
  auto model = std::make_shared<const GridModel>(topo);
  cache.emplace(key, model);
  return model;
}

void GridModel::clearCache() {
  std::lock_guard<std::mutex> lock(cacheMutex());
  cacheMap().clear();
}

GridSolution solveGrid(const GridConfig& cfg, const GridSolverOptions& opt) {
  NANO_OBS_SPAN("powergrid/grid_solve");
  const std::shared_ptr<const GridModel> model = GridModel::forConfig(cfg);
  const GridTopology& topo = model->topology();
  const MeshIndex& index = model->index();
  const int nx = topo.nx();
  const int ny = topo.ny();
  const int sub = topo.subdivisions;
  const std::size_t nUnknown = index.unknownCount();
  const double h = cfg.railPitch / sub;  // fine mesh pitch

  // Edge conductance; the cached matrix is the unit Laplacian, so fold g
  // into the load vector: (g L) x = b  <=>  L x = b / g.
  const double g = cfg.railWidth / (cfg.railSheetResistance * h);

  // Distributed loads: each rail node sinks the current of its tributary
  // strip (h along the rail, half a rail pitch to each side, split between
  // the two rail directions so the total equals density * area).
  std::vector<double> rhs(nUnknown, 0.0);
  const int hsSpan = cfg.hotspotCellsRail * sub;  // fine steps
  const int hsLoX = (nx - hsSpan) / 2;
  const int hsLoY = (ny - hsSpan) / 2;
  auto densityAt = [&](int x, int y) {
    const bool inHotspot = hsSpan > 0 && x >= hsLoX && x < hsLoX + hsSpan &&
                           y >= hsLoY && y < hsLoY + hsSpan;
    return cfg.powerDensity * (inHotspot ? cfg.hotspotFactor : 1.0);
  };
  const double tributary = 0.5 * h * cfg.railPitch;
  for (int y = 0; y < ny; ++y) {
    const bool xRail = y % sub == 0;
    const int step = xRail ? 1 : sub;
    for (int x = 0; x < nx; x += step) {
      const long u = index.unknownAt(x, y);
      if (u < 0) continue;
      double weight = xRail ? 1.0 : 0.0;
      if (x % sub == 0) weight += 1.0;
      rhs[static_cast<std::size_t>(u)] =
          densityAt(x, y) * tributary * weight / (cfg.supplyVoltage * g);
    }
  }

  PreconditionerKind kind = opt.preconditioner;
  if (kind == PreconditionerKind::Auto) {
    kind = nUnknown >= kAutoMultigridThreshold ? PreconditionerKind::Multigrid
                                               : PreconditionerKind::Jacobi;
  }

  GridSolution sol;
  CgResult cg;
  if (kind == PreconditionerKind::Multigrid) {
    const MultigridHierarchy& mg = model->hierarchy();
    sol.mgLevels = mg.levelCount();
    sol.preconditioner = mg.name();
    cg = solveCg(model->unitLaplacian(), rhs, mg, kRelTolerance,
                 kMaxIterations);
    if (!cg.converged) {
      // Stalled or diverged V-cycle: a wrong-but-finite preconditioner can
      // make CG wander forever. Re-solve with plain Jacobi-CG, which is
      // slow but dependable, rather than returning garbage.
      NANO_OBS_COUNT("powergrid/mg_fallback", 1);
      sol.mgFellBack = true;
      sol.preconditioner = "jacobi";
      cg = solveCg(model->unitLaplacian(), rhs, kRelTolerance, kMaxIterations);
    }
  } else {
    cg = solveCg(model->unitLaplacian(), rhs, kRelTolerance, kMaxIterations);
  }

  sol.nx = nx;
  sol.ny = ny;
  sol.cgIterations = cg.iterations;
  sol.cgResidualNorm = cg.residualNorm;
  sol.cgConverged = cg.converged;
  sol.cgDiagnostics = cg.diagnostics();
  sol.unknowns = nUnknown;
  sol.dropV.assign(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny),
                   0.0);
  for (int y = 0; y < ny; ++y) {
    const int step = (y % sub != 0) ? sub : 1;
    for (int x = 0; x < nx; x += step) {
      const long u = index.unknownAt(x, y);
      if (u < 0) continue;
      sol.dropV[static_cast<std::size_t>(y) * static_cast<std::size_t>(nx) +
                static_cast<std::size_t>(x)] =
          cg.x[static_cast<std::size_t>(u)];
    }
  }
  sol.maxDrop = *std::max_element(sol.dropV.begin(), sol.dropV.end());
  sol.maxDropFraction = sol.maxDrop / cfg.supplyVoltage;
  return sol;
}

GridConfig gridConfigForNode(const tech::TechNode& node, double widthMultiple,
                             double padPitch, bool withHotspot) {
  GridConfig cfg;
  // Vdd rails and bumps interleave with GND: same-polarity pitch is twice
  // the pad pitch.
  cfg.railPitch = 2.0 * padPitch;
  cfg.bumpPitch = 2.0 * padPitch;
  cfg.railWidth = widthMultiple * node.minGlobalWireWidth();
  cfg.railSheetResistance = node.metalResistivity / node.globalWireThickness();
  cfg.supplyVoltage = node.vdd;
  cfg.powerDensity = node.powerDensity();
  cfg.hotspotFactor = withHotspot ? kHotspotFactor : 1.0;
  cfg.hotspotCellsRail = withHotspot ? 1 : 0;
  cfg.tilesX = 3;
  cfg.tilesY = 3;
  cfg.subdivisions = 8;
  return cfg;
}

}  // namespace nano::powergrid
