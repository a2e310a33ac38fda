// Multigrid hierarchy: topology coarsening, the compact mesh index,
// transfer-operator properties (R = c * P^T), V-cycle preconditioned CG
// vs the Jacobi baseline, mesh-independent convergence, and the
// GridModel assembly cache.
#include "powergrid/multigrid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "powergrid/grid_model.h"
#include "util/rng.h"

namespace {

using nano::powergrid::GridConfig;
using nano::powergrid::GridModel;
using nano::powergrid::GridSolution;
using nano::powergrid::GridSolverOptions;
using nano::powergrid::GridTopology;
using nano::powergrid::MeshIndex;
using nano::powergrid::MultigridHierarchy;
using nano::powergrid::PreconditionerKind;
using nano::powergrid::solveGrid;
using nano::powergrid::SparseSpd;

GridConfig mediumConfig(int subdivisions, int tilesX = 2, int tilesY = 2) {
  GridConfig cfg;
  cfg.railPitch = 160e-6;
  cfg.bumpPitch = 320e-6;  // two rails per bump span
  cfg.tilesX = tilesX;
  cfg.tilesY = tilesY;
  cfg.subdivisions = subdivisions;
  cfg.hotspotCellsRail = 1;
  return cfg;
}

// 6x6 tiles, four rails per bump, 8 subdivisions: five levels, rail
// subdivision 8 -> 4 -> 2 -> 1, then bilinear rails 4 -> 2 (120 unknowns).
GridConfig deepConfig() {
  GridConfig cfg = mediumConfig(8, 6, 6);
  cfg.bumpPitch = 4 * cfg.railPitch;
  return cfg;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

TEST(GridTopology, CoarseningHalvesSubdivisionThenRails) {
  GridTopology t{3, 3, 8, 1};
  ASSERT_TRUE(t.canCoarsen());
  t = t.coarsened();
  EXPECT_EQ(t.subdivisions, 4);
  ASSERT_TRUE(t.canCoarsen());
  t = t.coarsened();
  EXPECT_EQ(t.subdivisions, 2);
  // One more halving would make every node a bump (bump step 1).
  EXPECT_FALSE(t.canCoarsen());

  GridTopology full{2, 2, 1, 4};
  ASSERT_TRUE(full.canCoarsen());
  full = full.coarsened();
  EXPECT_EQ(full.railsPerBump, 2);
  EXPECT_EQ(full.subdivisions, 1);
  EXPECT_FALSE(full.canCoarsen());
}

TEST(GridTopology, OddSubdivisionCannotCoarsen) {
  EXPECT_FALSE((GridTopology{2, 2, 3, 2}).canCoarsen());
  EXPECT_THROW(static_cast<void>((GridTopology{2, 2, 3, 2}).coarsened()),
               std::logic_error);
}

TEST(MeshIndex, MatchesBruteForceEnumeration) {
  for (const GridTopology topo :
       {GridTopology{2, 2, 4, 2}, GridTopology{1, 3, 8, 1},
        GridTopology{3, 2, 2, 4}, GridTopology{2, 2, 1, 4}}) {
    const MeshIndex index(topo);
    const int nx = topo.nx();
    const int ny = topo.ny();
    const int sub = topo.subdivisions;
    const int bs = topo.bumpStep();
    long next = 0;
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        const bool onRail = (y % sub == 0) || (x % sub == 0);
        const bool bump = (x % bs == 0) && (y % bs == 0);
        const long expected = (onRail && !bump) ? next++ : -1;
        EXPECT_EQ(index.unknownAt(x, y), expected)
            << "topo sub=" << sub << " rpb=" << topo.railsPerBump << " at ("
            << x << ", " << y << ")";
      }
    }
    EXPECT_EQ(index.unknownCount(), static_cast<std::size_t>(next));
  }
}

TEST(MeshIndex, OutOfRangeIsNotAnUnknown) {
  const MeshIndex index(GridTopology{2, 2, 4, 1});
  EXPECT_EQ(index.unknownAt(-1, 0), -1);
  EXPECT_EQ(index.unknownAt(0, -1), -1);
  EXPECT_EQ(index.unknownAt(index.topology().nx(), 0), -1);
}

// Deep hierarchy reaching both transfer flavors: rail-subdivision levels
// (scale 0.5) down to subdivisions == 1, then a bilinear rail-halving
// level (scale 0.25).
TEST(MultigridHierarchy, RestrictionIsScaledProlongationTranspose) {
  const auto model = GridModel::forConfig(deepConfig());
  const MultigridHierarchy mg(model->unitLaplacian(), model->topology());

  ASSERT_EQ(mg.levelCount(), 5);
  // Rail levels use c = 0.5; the final full-lattice level uses 0.25.
  for (int l = 0; l + 1 < mg.levelCount(); ++l) {
    const double c = mg.restrictionScale(l);
    if (mg.levelTopology(l).subdivisions > 1) {
      EXPECT_DOUBLE_EQ(c, 0.5) << "level " << l;
    } else {
      EXPECT_DOUBLE_EQ(c, 0.25) << "level " << l;
    }
  }
  EXPECT_EQ(mg.levelTopology(mg.levelCount() - 1).subdivisions, 1);
  EXPECT_EQ(mg.levelTopology(mg.levelCount() - 1).railsPerBump, 2);

  nano::util::Rng rng(7);
  for (int l = 0; l + 1 < mg.levelCount(); ++l) {
    const std::size_t nf = mg.levelUnknowns(l);
    const std::size_t nc = mg.levelUnknowns(l + 1);
    ASSERT_LT(nc, nf) << "level " << l;
    std::vector<double> v(nf), w(nc);
    for (double& x : v) x = rng.uniform(-1.0, 1.0);
    for (double& x : w) x = rng.uniform(-1.0, 1.0);
    std::vector<double> rv, pw;
    mg.applyRestriction(l, v, rv);
    mg.applyProlongation(l, w, pw);
    ASSERT_EQ(rv.size(), nc);
    ASSERT_EQ(pw.size(), nf);
    // <R v, w> = c <v, P w> with R = c * P^T.
    const double lhs = dot(rv, w);
    const double rhs = mg.restrictionScale(l) * dot(v, pw);
    EXPECT_NEAR(lhs, rhs, 1e-12 * (1.0 + std::abs(lhs)))
        << "adjoint identity broken at level " << l;
  }
}

TEST(MultigridHierarchy, RejectsAnOperatorThatDefeatsTheColoring) {
  // The unit Laplacian plus a coupling between unknowns 0 and 2 of the
  // first row (x = 1 and x = 3): one color under both the parity and the
  // four-coloring, so no color bucket could sweep in parallel. The mesh
  // has several levels, so the fine level is one the V-cycle smooths (the
  // coarsest is solved directly and never colored).
  const auto model = GridModel::forConfig(deepConfig());
  const SparseSpd& lap = model->unitLaplacian();
  ASSERT_GE(MultigridHierarchy(lap, model->topology()).levelCount(), 2);
  ASSERT_EQ(model->index().unknownAt(1, 0), 0);
  ASSERT_EQ(model->index().unknownAt(3, 0), 2);
  SparseSpd coupled(lap.size());
  for (std::size_t u = 0; u < lap.size(); ++u) {
    for (std::size_t m = lap.rowPtr()[u]; m < lap.rowPtr()[u + 1]; ++m) {
      const std::size_t c = lap.cols()[m];
      if (c == u) {
        coupled.addDiagonal(u, lap.values()[m]);
      } else if (c > u) {
        coupled.addOffDiagonal(u, c, lap.values()[m]);
      }
    }
  }
  coupled.addOffDiagonal(0, 2, -1.0);
  coupled.addDiagonal(0, 1.0);
  coupled.addDiagonal(2, 1.0);
  coupled.finalize();
  try {
    const MultigridHierarchy mg(coupled, model->topology());
    ADD_FAILURE() << "an operator that defeats both colorings was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("coloring"), std::string::npos)
        << e.what();
  }

  // The meshes' own operators color cleanly on every smoothed level:
  // parity on the rail levels, four colors on the bilinear Galerkin level.
  const auto medium = GridModel::forConfig(mediumConfig(8));
  EXPECT_NO_THROW(
      MultigridHierarchy(medium->unitLaplacian(), medium->topology()));
}

TEST(MultigridHierarchy, RejectsMismatchedMatrix) {
  const auto model = GridModel::forConfig(mediumConfig(8));
  const GridTopology wrong{model->topology().tilesX, model->topology().tilesY,
                           model->topology().subdivisions * 2,
                           model->topology().railsPerBump};
  EXPECT_THROW(MultigridHierarchy(model->unitLaplacian(), wrong),
               std::invalid_argument);
}

TEST(MultigridSolve, MatchesJacobiSolution) {
  const GridConfig cfg = mediumConfig(32);
  GridSolverOptions jacobi;
  jacobi.preconditioner = PreconditionerKind::Jacobi;
  GridSolverOptions multigrid;
  multigrid.preconditioner = PreconditionerKind::Multigrid;

  const GridSolution a = solveGrid(cfg, jacobi);
  const GridSolution b = solveGrid(cfg, multigrid);
  ASSERT_TRUE(a.cgConverged);
  ASSERT_TRUE(b.cgConverged);
  EXPECT_EQ(a.preconditioner, "jacobi");
  EXPECT_EQ(b.preconditioner, "multigrid");
  EXPECT_FALSE(b.mgFellBack);
  EXPECT_GE(b.mgLevels, 2);
  EXPECT_NEAR(a.maxDrop, b.maxDrop, 1e-8 * a.maxDrop);
  ASSERT_EQ(a.dropV.size(), b.dropV.size());
  for (std::size_t i = 0; i < a.dropV.size(); ++i) {
    ASSERT_NEAR(a.dropV[i], b.dropV[i], 1e-8 * a.maxDrop) << "node " << i;
  }
}

TEST(MultigridSolve, MatchesJacobiOnAsymmetricWindow) {
  const GridConfig cfg = mediumConfig(16, 3, 2);
  GridSolverOptions jacobi;
  jacobi.preconditioner = PreconditionerKind::Jacobi;
  GridSolverOptions multigrid;
  multigrid.preconditioner = PreconditionerKind::Multigrid;
  const GridSolution a = solveGrid(cfg, jacobi);
  const GridSolution b = solveGrid(cfg, multigrid);
  ASSERT_TRUE(a.cgConverged);
  ASSERT_TRUE(b.cgConverged);
  EXPECT_NEAR(a.maxDrop, b.maxDrop, 1e-8 * a.maxDrop);
}

TEST(MultigridSolve, IterationCountIsMeshIndependent) {
  GridSolverOptions mgOpt;
  mgOpt.preconditioner = PreconditionerKind::Multigrid;
  GridSolverOptions jacobiOpt;
  jacobiOpt.preconditioner = PreconditionerKind::Jacobi;

  int minIters = 1 << 30;
  int maxIters = 0;
  int jacobiAtLargest = 0;
  int mgAtLargest = 0;
  for (const int sub : {16, 32, 64}) {
    const GridConfig cfg = mediumConfig(sub);
    const GridSolution mg = solveGrid(cfg, mgOpt);
    ASSERT_TRUE(mg.cgConverged) << "sub " << sub;
    minIters = std::min(minIters, mg.cgIterations);
    maxIters = std::max(maxIters, mg.cgIterations);
    mgAtLargest = mg.cgIterations;
    if (sub == 64) {
      jacobiAtLargest = solveGrid(cfg, jacobiOpt).cgIterations;
    }
  }
  // Quadrupling the mesh should leave the preconditioned iteration count
  // essentially flat; Jacobi's grows with the mesh diameter.
  EXPECT_LE(maxIters, 30);
  EXPECT_LE(maxIters, 2 * minIters);
  EXPECT_GT(jacobiAtLargest, 5 * mgAtLargest);
}

TEST(MultigridSolve, TinyGridUsesDirectCoarseSolve) {
  // Below the coarse target the "hierarchy" is a single level solved by
  // the dense factorization, so CG needs only a couple of iterations.
  const GridConfig cfg = mediumConfig(8);
  GridSolverOptions opt;
  opt.preconditioner = PreconditionerKind::Multigrid;
  const GridSolution sol = solveGrid(cfg, opt);
  ASSERT_TRUE(sol.cgConverged);
  EXPECT_EQ(sol.mgLevels, 1);
  EXPECT_LE(sol.cgIterations, 3);
}

TEST(MultigridSolve, AutoPicksJacobiForSmallGrids) {
  const GridSolution sol = solveGrid(mediumConfig(8));
  ASSERT_TRUE(sol.cgConverged);
  EXPECT_EQ(sol.preconditioner, "jacobi");
  EXPECT_EQ(sol.mgLevels, 0);
}

TEST(GridModelCache, AssemblesOncePerTopology) {
  const bool wasEnabled = nano::obs::enabled();
  nano::obs::setEnabled(true);
  auto& registry = nano::obs::MetricsRegistry::instance();
  registry.reset();
  GridModel::clearCache();

  const GridConfig cfg = mediumConfig(8);
  (void)solveGrid(cfg);
  GridConfig electrical = cfg;
  electrical.railWidth *= 3.0;       // only the scalar conductance changes
  electrical.powerDensity *= 0.5;    // only the load vector changes
  (void)solveGrid(electrical);
  (void)solveGrid(cfg);

  EXPECT_EQ(registry.counter("powergrid/grid_assemblies").value(), 1);
  EXPECT_EQ(registry.counter("powergrid/grid_assembly_reuses").value(), 2);

  GridConfig finer = cfg;
  finer.subdivisions = 16;           // new topology: one more assembly
  (void)solveGrid(finer);
  EXPECT_EQ(registry.counter("powergrid/grid_assemblies").value(), 2);

  registry.reset();
  GridModel::clearCache();
  nano::obs::setEnabled(wasEnabled);
}

TEST(GridModelCache, ScalingRailWidthScalesDropExactly) {
  // With the matrix cached as a unit Laplacian, conductance enters only
  // through the rhs scale — doubling the rail width must exactly halve
  // the drop (same discrete solution, scaled).
  const GridConfig cfg = mediumConfig(8);
  GridConfig doubled = cfg;
  doubled.railWidth *= 2.0;
  const GridSolution a = solveGrid(cfg);
  const GridSolution b = solveGrid(doubled);
  ASSERT_TRUE(a.cgConverged);
  ASSERT_TRUE(b.cgConverged);
  EXPECT_NEAR(b.maxDrop, 0.5 * a.maxDrop, 1e-9 * a.maxDrop);
}

TEST(MultigridObs, VcycleCounterAdvances) {
  const bool wasEnabled = nano::obs::enabled();
  nano::obs::setEnabled(true);
  auto& registry = nano::obs::MetricsRegistry::instance();
  registry.reset();
  GridModel::clearCache();

  GridSolverOptions opt;
  opt.preconditioner = PreconditionerKind::Multigrid;
  const GridSolution sol = solveGrid(mediumConfig(32), opt);
  ASSERT_TRUE(sol.cgConverged);
  // One V-cycle per CG iteration plus the seed application.
  EXPECT_GE(registry.counter("powergrid/mg_vcycles").value(),
            sol.cgIterations);
  EXPECT_EQ(registry.counter("powergrid/mg_fallback").value(), 0);
  EXPECT_GE(registry.gauge("powergrid/mg_levels").value(), 2.0);

  registry.reset();
  GridModel::clearCache();
  nano::obs::setEnabled(wasEnabled);
}

}  // namespace
