// Byte pins for the multigrid-preconditioned grid solve, and a bit-exact
// oracle for the Jacobi-CG loop that solves a coarsest level too large for
// the dense factorization. The pins hold the hierarchy depth, the CG
// iteration count, the bits of maxDrop and a hash of every dropV byte, so
// any change to the V-cycle's arithmetic or order shows here first.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "powergrid/grid_model.h"
#include "powergrid/multigrid.h"
#include "powergrid/solver.h"
#include "tech/itrs.h"
#include "util/rng.h"

namespace nano::powergrid {
namespace {

std::uint64_t bitsOf(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// FNV-1a over the raw bytes of every element.
std::uint64_t hashBytes(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

GridConfig node35Mesh(int subdivisions) {
  const tech::TechNode& node = tech::nodeByFeature(35);
  GridConfig cfg = gridConfigForNode(node, 4.0, node.minBumpPitch);
  cfg.subdivisions = subdivisions;
  return cfg;
}

// BM_GridSolve's mesh: 10x10 tiles, 160 um rails, 640 um bumps.
GridConfig benchMesh(int subdivisions) {
  GridConfig cfg;
  cfg.railPitch = 160e-6;
  cfg.bumpPitch = 640e-6;
  cfg.railWidth = 2e-6;
  cfg.tilesX = cfg.tilesY = 10;
  cfg.subdivisions = subdivisions;
  cfg.hotspotFactor = 4.0;
  cfg.hotspotCellsRail = 1;
  return cfg;
}

struct MultigridPin {
  const char* mesh;
  GridConfig cfg;
  int levels;
  int iterations;
  double maxDrop;
  std::uint64_t dropHash;
};

// Node 35 at 8/32/64 subdivisions ends on a dense-Cholesky coarsest level
// after 1, 2 and 3 levels; at 45 and 90 the coarsest level holds 1,056
// unknowns and takes the inner Jacobi-CG after 1 and 2 levels. The bench
// mesh runs 5 and 7 levels down to the bilinear rail-halving levels.
TEST(MultigridPins, SolveBytesAreUnchanged) {
  const MultigridPin pins[] = {
      {"node 35, sub 8", node35Mesh(8), 1, 1, 0x1.34f496f783f38p-5,
       0xc9ce44e73d79673dULL},
      {"node 35, sub 32", node35Mesh(32), 2, 1, 0x1.34f496f783f36p-5,
       0xdf8e9e33e03b13a5ULL},
      {"node 35, sub 64", node35Mesh(64), 3, 1, 0x1.34f496f783f31p-5,
       0xe1c059dcdc54cbe5ULL},
      {"node 35, sub 45", node35Mesh(45), 1, 1, 0x1.34cd8819e7e2ep-5,
       0x511d098c90f9af5dULL},
      {"node 35, sub 90", node35Mesh(90), 2, 1, 0x1.34f496f783f31p-5,
       0xb507cd2a39495df5ULL},
      {"bench mesh, sub 8", benchMesh(8), 5, 9, 0x1.35d5251724d49p-2,
       0x5fdea81d5820febaULL},
      {"bench mesh, sub 32", benchMesh(32), 7, 9, 0x1.35a02eec91ec3p-2,
       0xe5d1818048885064ULL},
  };
  GridSolverOptions opt;
  opt.preconditioner = PreconditionerKind::Multigrid;
  for (const MultigridPin& pin : pins) {
    const GridSolution sol = solveGrid(pin.cfg, opt);
    EXPECT_EQ(sol.preconditioner, "multigrid") << pin.mesh;
    EXPECT_FALSE(sol.mgFellBack) << pin.mesh;
    EXPECT_TRUE(sol.cgConverged) << pin.mesh;
    EXPECT_EQ(sol.mgLevels, pin.levels) << pin.mesh;
    EXPECT_EQ(sol.cgIterations, pin.iterations) << pin.mesh;
    EXPECT_EQ(bitsOf(sol.maxDrop), bitsOf(pin.maxDrop))
        << pin.mesh << ": maxDrop " << std::hexfloat << sol.maxDrop;
    EXPECT_EQ(hashBytes(sol.dropV), pin.dropHash)
        << pin.mesh << ": dropV hash 0x" << std::hex << hashBytes(sol.dropV);
  }
}

// The coarsest-level Jacobi-CG as it ran before the coarse solve shared
// solveCg's loop, kept verbatim as the reference.
void fallbackCoarseCg(const SparseSpd& a, const std::vector<double>& b,
                      std::vector<double>& x) {
  const std::size_t n = a.size();
  x.assign(n, 0.0);
  std::vector<double> r = b, z(n), p(n), ap(n);
  auto dot = [](const std::vector<double>& u, const std::vector<double>& v) {
    double s = 0.0;
    for (std::size_t i = 0; i < u.size(); ++i) s += u[i] * v[i];
    return s;
  };
  const double bNorm = std::sqrt(dot(b, b));
  if (bNorm == 0.0 || !std::isfinite(bNorm)) return;
  for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / a.diagonal(i);
  p = z;
  double rz = dot(r, z);
  const double threshold = 1e-10 * bNorm;
  const int maxIterations = static_cast<int>(4 * n) + 100;
  for (int it = 0; it < maxIterations; ++it) {
    a.multiply(p, ap);
    const double alpha = rz / dot(p, ap);
    if (!std::isfinite(alpha)) break;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    if (std::sqrt(dot(r, r)) <= threshold) break;
    for (std::size_t i = 0; i < n; ++i) z[i] = r[i] / a.diagonal(i);
    const double rzNew = dot(r, z);
    const double beta = rzNew / rz;
    rz = rzNew;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
}

bool sameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Both meshes leave a single level above the dense limit, so a V-cycle is
// exactly the inner Jacobi-CG solve: the 45-subdivision mesh's 1,056
// unknowns (rail chains, where CG terminates in 44 iterations whatever the
// tolerance) and a full lattice with seven rails per bump that cannot
// coarsen, 1,260 unknowns (2-D coupling: the iteration count follows the
// tolerance, 106 at 1e-9 and 115 at 1e-10 on the first seed).
TEST(CoarseCgOracle, SharedLoopMatchesReferenceBitForBit) {
  const GridModel railChains(gridTopology(node35Mesh(45)));
  const GridModel fullLattice(GridTopology{5, 5, 1, 7});
  for (const GridModel* model : {&railChains, &fullLattice}) {
    const SparseSpd& a = model->unitLaplacian();
    const std::size_t n = a.size();
    ASSERT_GT(n, 1024u);
    const MultigridHierarchy mg(a, model->topology());
    ASSERT_EQ(mg.levelCount(), 1);

    std::vector<std::vector<double>> rhs;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      util::Rng rng(seed);
      std::vector<double> b(n);
      for (double& v : b) v = rng.uniform(-1.0, 1.0);
      rhs.push_back(b);
    }
    rhs.emplace_back(n, 0.0);
    std::vector<double> poisoned = rhs[0];
    poisoned[n / 2] = std::numeric_limits<double>::quiet_NaN();
    rhs.push_back(poisoned);

    for (std::size_t k = 0; k < rhs.size(); ++k) {
      std::vector<double> expected;
      fallbackCoarseCg(a, rhs[k], expected);
      std::vector<double> viaVcycle;
      mg.apply(rhs[k], viaVcycle);
      EXPECT_TRUE(sameBytes(viaVcycle, expected)) << n << " unknowns, rhs " << k;
      const CgResult direct =
          solveCg(a, rhs[k], JacobiPreconditioner(a), 1e-10,
                  static_cast<int>(4 * n) + 100);
      EXPECT_TRUE(sameBytes(direct.x, expected)) << n << " unknowns, rhs " << k;
    }
  }
}

}  // namespace
}  // namespace nano::powergrid
