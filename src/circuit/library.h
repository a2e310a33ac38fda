// Standard-cell library: a discrete set of drive strengths per function /
// Vth / Vdd corner, plus the paper's Section 2.3 "on-the-fly cell
// generation" — synthesizing a cell with exactly the drive a load needs,
// layered on top of the discrete library.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/cell.h"

namespace nano::circuit {

/// Library generation options.
struct LibraryConfig {
  /// Discrete drive strengths. A "rich" modern library (the paper cites 16
  /// inverter sizes); a poor one might have {1, 4, 16}.
  std::vector<double> driveStrengths = {0.5, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32};
  std::vector<CellFunction> functions = {
      CellFunction::Inv,  CellFunction::Buf,  CellFunction::Nand2,
      CellFunction::Nand3, CellFunction::Nor2, CellFunction::Nor3,
      CellFunction::Xor2, CellFunction::LevelConverter};
  bool dualVth = true;
  bool dualVdd = true;
  /// Vdd,l / Vdd,h of the low domain (paper optimum: ~0.65).
  double vddLowRatio = kCvsVddLowRatio;
  /// High-Vth flavor's offset above the low (fast) Vth (paper: 100 mV).
  double vthOffset = kDualVthOffset;
};

/// A characterized library for one node.
class Library {
 public:
  Library(const tech::TechNode& node, LibraryConfig config = {},
          double temperature = 300.0);

  [[nodiscard]] const CellCharacterizer& characterizer() const { return charzr_; }
  [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }
  [[nodiscard]] const LibraryConfig& config() const { return config_; }

  /// Smallest discrete cell of the corner whose drive >= `minDrive`;
  /// returns the largest available if none is big enough.
  [[nodiscard]] const Cell& pick(CellFunction function, double minDrive,
                                 VthClass vth = VthClass::Low,
                                 VddDomain domain = VddDomain::High) const;

  /// The same cell re-characterized in a different corner (same function
  /// and drive, new Vth/Vdd) — what the multi-Vdd/multi-Vth optimizers do.
  [[nodiscard]] Cell recorner(const Cell& cell, VthClass vth,
                              VddDomain domain) const;

  /// On-the-fly generation (paper Section 2.3): a cell with *exactly* the
  /// requested drive, not rounded to the discrete set.
  [[nodiscard]] Cell generateCustom(CellFunction function, double exactDrive,
                                    VthClass vth = VthClass::Low,
                                    VddDomain domain = VddDomain::High) const;

  /// Smallest inverter input capacitance, F — the paper's Section 2.3
  /// library-granularity metric (quotes 1.5 fF for a 180 nm library).
  [[nodiscard]] double smallestInverterInputCap() const;

 private:
  CellCharacterizer charzr_;
  LibraryConfig config_;
  std::vector<Cell> cells_;
  /// Per corner, the indices of its cells in cells_ order, so pick()
  /// scans one corner rather than the whole library.
  std::vector<std::vector<std::uint32_t>> cornerCells_;
};

/// The default library (LibraryConfig{}, 300 K) of the roadmap node of
/// feature size `featureNm`. One entry per roadmap node, all built on
/// first use and never written after, so concurrent callers share them
/// without a lock. Throws std::out_of_range off the roadmap.
const Library& roadmapLibrary(int featureNm);

}  // namespace nano::circuit
