// Resistive power-grid mesh builder: a "waffle" of top-level Vdd rails in
// both routing directions at the same-polarity rail pitch, ideal bumps
// (Dirichlet nodes) at rail crossings on the bump pitch, distributed
// current loads along the rails with a hot-spot region at a multiple of
// the average power density. Solved with preconditioned CG for IR drop.
//
// The conductance matrix depends on the configuration only through the
// mesh structure and one uniform scalar g = railWidth / (sheetR * h): the
// matrix is g times the unit Laplacian of the topology. GridModel caches
// that unit Laplacian (and its multigrid hierarchy) per topology, so
// sweeps that vary only electrical parameters — the Figure 5 linewidth
// sweep, wake-up load ramps — assemble once and reuse it, folding g into
// the right-hand side.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "powergrid/multigrid.h"
#include "powergrid/solver.h"
#include "tech/itrs.h"

namespace nano::powergrid {

/// Mesh configuration. The modeled window is `tilesX x tilesY` bump cells
/// with natural (Neumann) boundaries — a periodic patch of a large die.
struct GridConfig {
  double railPitch = 160e-6;  ///< m, spacing of same-polarity (Vdd) rails
  double bumpPitch = 160e-6;  ///< m, Vdd bump spacing (multiple of railPitch)
  double railWidth = 1e-6;    ///< m
  double railSheetResistance = 0.055;  ///< ohm/sq of the top metal
  double supplyVoltage = 1.0; ///< V
  double powerDensity = 5e5;  ///< W/m^2, average (this polarity carries all)
  double hotspotFactor = 4.0; ///< density multiplier inside the hot-spot
  int hotspotCellsRail = 0;   ///< hot-spot square size in rail pitches (0: none)
  int tilesX = 2;             ///< window size, bump pitches
  int tilesY = 2;
  int subdivisions = 8;       ///< mesh nodes per rail span (resolution)
};

enum class PreconditionerKind {
  Auto,       ///< Multigrid above ~32k unknowns, Jacobi below
  Jacobi,
  Multigrid,
};

/// Solver selection for solveGrid (and everything layered on it). CG runs
/// to a relative residual of 1e-10 within 20,000 iterations.
struct GridSolverOptions {
  PreconditionerKind preconditioner = PreconditionerKind::Auto;
};

/// Solved grid.
struct GridSolution {
  int nx = 0;                   ///< fine-mesh points per row (incl. off-rail)
  int ny = 0;
  std::vector<double> dropV;    ///< IR drop per fine node (0 off-rail)
  double maxDrop = 0.0;         ///< V
  double maxDropFraction = 0.0; ///< of supplyVoltage
  int cgIterations = 0;
  double cgResidualNorm = 0.0;  ///< 2-norm of the CG residual at exit
  bool cgConverged = false;
  /// Structured solver outcome (kernel "powergrid/cg"); distinguishes a
  /// stalled solve from a poisoned one where dropV is untrustworthy.
  util::Diagnostics cgDiagnostics;
  std::size_t unknowns = 0;
  /// Preconditioner that produced dropV ("jacobi" or "multigrid").
  std::string preconditioner = "jacobi";
  int mgLevels = 0;             ///< hierarchy depth (0: Jacobi path)
  /// True when a stalled/diverged V-cycle forced a Jacobi-CG re-solve.
  bool mgFellBack = false;
};

/// Cached per-topology mesh state: unknown enumeration, the unit-
/// conductance Laplacian, and a lazily-built multigrid hierarchy. Shared
/// between concurrent solves; everything here is immutable after build
/// (the hierarchy builds under std::call_once).
class GridModel {
 public:
  explicit GridModel(const GridTopology& topology);

  /// Shared model for the topology implied by `config`, from a process-
  /// wide cache. Counts obs "powergrid/grid_assemblies" on a build and
  /// "powergrid/grid_assembly_reuses" on a hit.
  static std::shared_ptr<const GridModel> forConfig(const GridConfig& config);
  /// Drop every cached model (tests that assert assembly counts).
  static void clearCache();

  [[nodiscard]] const GridTopology& topology() const { return topo_; }
  [[nodiscard]] const MeshIndex& index() const { return index_; }
  /// Laplacian with unit edge conductance; scale the rhs by 1/g instead.
  [[nodiscard]] const SparseSpd& unitLaplacian() const { return laplacian_; }
  /// Multigrid hierarchy over unitLaplacian(), built on first use.
  [[nodiscard]] const MultigridHierarchy& hierarchy() const;

 private:
  GridTopology topo_;
  MeshIndex index_;
  SparseSpd laplacian_;
  mutable std::once_flag hierarchyOnce_;
  mutable std::unique_ptr<MultigridHierarchy> hierarchy_;
};

/// Topology implied by a configuration (railsPerBump is rounded from the
/// pitch ratio). Throws on an invalid configuration.
GridTopology gridTopology(const GridConfig& config);

/// Build (or fetch from cache) and solve the mesh for `config`.
GridSolution solveGrid(const GridConfig& config,
                       const GridSolverOptions& options = {});

/// Hot-spot power density as a multiple of the node's average: the
/// Figure 5 closed form and gridConfigForNode's hot spot both use it.
inline constexpr double kHotspotFactor = 4.0;

/// Grid configuration for a roadmap node with rails `widthMultiple` times
/// the minimum top-level width. `padPitch` is the pitch of the full bump
/// array; Vdd rails/bumps interleave with GND, so same-polarity pitches
/// are 2x padPitch.
GridConfig gridConfigForNode(const tech::TechNode& node, double widthMultiple,
                             double padPitch, bool withHotspot = true);

}  // namespace nano::powergrid
