// Geometric multigrid for the waffle power-grid mesh: a level hierarchy
// coarsening the rail lattice (halving the rail subdivision first, then the
// rail count), linear prolongation along rails / bilinear prolongation on
// the full lattice, full-weighting restriction R = c * P^T, and Galerkin
// coarse operators A_c = R A P. The V-cycle is fixed and symmetric: one
// red-black (rail levels) or four-colour (bilinear levels) Gauss-Seidel
// sweep before the coarse correction and one in reversed colour order
// after it, so it is a valid SPD preconditioner for the CG solver in
// powergrid/solver.h. Coarsening stops at 512 unknowns or 16 levels; a
// coarsest level of up to 1,024 unknowns is solved by dense Cholesky, a
// larger one by an inner Jacobi-CG.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "powergrid/solver.h"

namespace nano::powergrid {

/// Structure of the waffle mesh, independent of conductance values: a
/// `tilesX x tilesY` window of bump cells, `railsPerBump` rail spans per
/// bump span, `subdivisions` fine steps per rail span. Horizontal rails
/// run along rows y % subdivisions == 0, vertical rails along columns
/// x % subdivisions == 0; bumps (Dirichlet nodes) sit at rail crossings
/// on the bump step.
struct GridTopology {
  int tilesX = 0;
  int tilesY = 0;
  int subdivisions = 0;
  int railsPerBump = 0;

  friend bool operator==(const GridTopology&, const GridTopology&) = default;

  [[nodiscard]] int bumpStep() const { return railsPerBump * subdivisions; }
  [[nodiscard]] int nx() const { return tilesX * bumpStep() + 1; }
  [[nodiscard]] int ny() const { return tilesY * bumpStep() + 1; }

  /// True when one more coarsening step yields a valid mesh: halve the
  /// subdivision while it is even, then halve the rail count while the
  /// mesh is a full lattice (subdivisions == 1). The coarse bump step
  /// must stay >= 2 or every node would be a Dirichlet bump.
  [[nodiscard]] bool canCoarsen() const;
  /// The next-coarser topology (throws std::logic_error if !canCoarsen()).
  [[nodiscard]] GridTopology coarsened() const;
};

/// Row-major enumeration of the mesh unknowns (rail nodes that are not
/// bumps) in O(nx + ny) memory — the full-lattice lookup table the seed
/// solver used is ~nx*ny entries, which at subdivision 128 would be tens
/// of millions of slots.
class MeshIndex {
 public:
  explicit MeshIndex(const GridTopology& topology);

  [[nodiscard]] const GridTopology& topology() const { return topo_; }
  [[nodiscard]] std::size_t unknownCount() const { return count_; }

  /// Unknown index of mesh node (x, y), or -1 when the node is off-rail
  /// or a bump. Matches the historical row-major scan order exactly.
  [[nodiscard]] long unknownAt(int x, int y) const;

 private:
  GridTopology topo_;
  std::size_t count_ = 0;
  std::vector<std::size_t> rowStart_;  // first unknown of each row
  std::vector<long> bumpRowCol_;       // column offsets in a bump row (-1: bump)
};

/// Level hierarchy + V-cycle. Holds a reference to the fine matrix (the
/// hierarchy must not outlive it). apply() keeps all scratch state on the
/// stack of the call, so concurrent applies from parallel sweeps are safe
/// and deterministic.
class MultigridHierarchy final : public Preconditioner {
 public:
  /// Build from the finalized fine-level matrix and its topology. The
  /// matrix must be the one assembled by GridModel for `topology` (same
  /// unknown enumeration); any uniform conductance scale is fine. Throws
  /// std::logic_error when neither the two- nor the four-colouring of a
  /// smoothed level (any but the coarsest) decouples its operator (the
  /// colour sweeps would then race).
  MultigridHierarchy(const SparseSpd& fineMatrix, const GridTopology& topology);
  ~MultigridHierarchy() override;

  MultigridHierarchy(const MultigridHierarchy&) = delete;
  MultigridHierarchy& operator=(const MultigridHierarchy&) = delete;

  /// One symmetric V-cycle on M z = r from a zero initial guess.
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override;
  [[nodiscard]] const char* name() const override { return "multigrid"; }

  [[nodiscard]] int levelCount() const;
  [[nodiscard]] std::size_t levelUnknowns(int level) const;
  [[nodiscard]] const GridTopology& levelTopology(int level) const;

  /// The constant c in R = c * P^T between `level` (fine) and `level + 1`
  /// (coarse): 0.5 for rail-subdivision coarsening, 0.25 for bilinear.
  [[nodiscard]] double restrictionScale(int level) const;
  /// coarse = R * fine (full weighting, includes the scale).
  void applyRestriction(int level, const std::vector<double>& fine,
                        std::vector<double>& coarse) const;
  /// fine = P * coarse.
  void applyProlongation(int level, const std::vector<double>& coarse,
                         std::vector<double>& fine) const;

 private:
  struct Level;
  struct DenseCholesky;

  void smooth(const Level& level, const std::vector<double>& b,
              std::vector<double>& x, bool reversed) const;
  void coarseSolve(const std::vector<double>& b, std::vector<double>& x) const;

  std::vector<Level> levels_;
  std::unique_ptr<DenseCholesky> coarseFactor_;  // null: inner-CG fallback
};

}  // namespace nano::powergrid
