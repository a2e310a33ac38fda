#include "circuit/library.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/units.h"

namespace nano::circuit {
namespace {

using namespace nano::units;

const Library& lib100() {
  static const Library lib(tech::nodeByFeature(100));
  return lib;
}

TEST(Library, CellCountMatchesConfig) {
  const auto& lib = lib100();
  const auto& cfg = lib.config();
  const std::size_t expected = cfg.functions.size() *
                               cfg.driveStrengths.size() * 2 /*vth*/ *
                               2 /*vdd*/;
  EXPECT_EQ(lib.cells().size(), expected);
}

TEST(Library, PickReturnsSmallestSufficient) {
  const Cell& c = lib100().pick(CellFunction::Inv, 3.5);
  EXPECT_DOUBLE_EQ(c.drive, 4.0);
  EXPECT_EQ(c.function, CellFunction::Inv);
}

TEST(Library, PickExactMatch) {
  EXPECT_DOUBLE_EQ(lib100().pick(CellFunction::Nand2, 8.0).drive, 8.0);
}

TEST(Library, PickSaturatesAtLargest) {
  EXPECT_DOUBLE_EQ(lib100().pick(CellFunction::Inv, 1e9).drive, 32.0);
}

TEST(Library, PickRespectsCorner) {
  const Cell& c =
      lib100().pick(CellFunction::Nor2, 2.0, VthClass::High, VddDomain::Low);
  EXPECT_EQ(c.vth, VthClass::High);
  EXPECT_EQ(c.vddDomain, VddDomain::Low);
}

TEST(Library, RecornerPreservesFunctionAndDrive) {
  const auto& lib = lib100();
  const Cell& base = lib.pick(CellFunction::Nand3, 4.0);
  const Cell re = lib.recorner(base, VthClass::High, VddDomain::Low);
  EXPECT_EQ(re.function, CellFunction::Nand3);
  EXPECT_DOUBLE_EQ(re.drive, 4.0);
  EXPECT_EQ(re.vth, VthClass::High);
  EXPECT_EQ(re.vddDomain, VddDomain::Low);
}

TEST(Library, GenerateCustomHitsExactDrive) {
  // Paper Section 2.3: on-the-fly cells match load conditions exactly.
  const Cell c = lib100().generateCustom(CellFunction::Inv, 2.718);
  EXPECT_DOUBLE_EQ(c.drive, 2.718);
}

TEST(Library, CustomCellInterpolatesDiscreteNeighbors) {
  const auto& lib = lib100();
  const Cell lo = lib.pick(CellFunction::Inv, 2.0);
  const Cell hi = lib.pick(CellFunction::Inv, 3.0);
  const Cell mid = lib.generateCustom(CellFunction::Inv, 2.5);
  EXPECT_GT(mid.inputCap, lo.inputCap);
  EXPECT_LT(mid.inputCap, hi.inputCap);
  EXPECT_LT(mid.driveResistance, lo.driveResistance);
  EXPECT_GT(mid.driveResistance, hi.driveResistance);
}

TEST(Library, SmallestInverterCapComparableToPaper) {
  // The paper cites 1.5 fF for the smallest 180 nm library inverter; ours
  // at 180 nm (drive 0.5 unit) should be the same order.
  const Library lib(tech::nodeByFeature(180));
  const double cap = lib.smallestInverterInputCap();
  EXPECT_GT(cap, 0.2 * fF);
  EXPECT_LT(cap, 3.0 * fF);
}

TEST(Library, SingleVthConfig) {
  LibraryConfig cfg;
  cfg.dualVth = false;
  cfg.dualVdd = false;
  const Library lib(tech::nodeByFeature(100), cfg);
  for (const Cell& c : lib.cells()) {
    EXPECT_EQ(c.vth, VthClass::Low);
    EXPECT_EQ(c.vddDomain, VddDomain::High);
  }
}

TEST(Library, PoorLibraryHasCoarseGranularity) {
  // The paper's Section 2.3 complaint: sparse drive sets force overdrive.
  LibraryConfig poor;
  poor.driveStrengths = {4, 16, 32};
  const Library lib(tech::nodeByFeature(100), poor);
  // Asking for a tiny cell returns a 4x: heavy input-load overdesign.
  EXPECT_DOUBLE_EQ(lib.pick(CellFunction::Inv, 0.6).drive, 4.0);
}

TEST(Library, RejectsEmptyConfig) {
  LibraryConfig cfg;
  cfg.driveStrengths.clear();
  EXPECT_THROW(Library(tech::nodeByFeature(100), cfg), std::invalid_argument);
}

TEST(Library, PickThrowsForMissingFunction) {
  LibraryConfig cfg;
  cfg.functions = {CellFunction::Inv};
  const Library lib(tech::nodeByFeature(100), cfg);
  EXPECT_THROW(static_cast<void>(lib.pick(CellFunction::Xor2, 1.0)),
               std::out_of_range);
}

// The historical pick(): a scan over every cell of the library. Kept as
// the slow reference the per-corner index must agree with.
const Cell* scanPick(const Library& lib, CellFunction function,
                     double minDrive, VthClass vth, VddDomain domain) {
  const Cell* best = nullptr;
  const Cell* largest = nullptr;
  for (const Cell& c : lib.cells()) {
    if (c.function != function || c.vth != vth || c.vddDomain != domain) {
      continue;
    }
    if (!largest || c.drive > largest->drive) largest = &c;
    if (c.drive >= minDrive && (!best || c.drive < best->drive)) best = &c;
  }
  return best ? best : largest;
}

// Every corner, with minDrive below, on, just either side of, between and
// above the configured drives: pick() must return the very Cell object
// the scan finds, or throw where the scan finds none.
void expectPickMatchesScan(const Library& lib) {
  std::vector<double> probes = {-1.0, 0.0, 1e9};
  for (double d : lib.config().driveStrengths) {
    probes.insert(probes.end(), {0.5 * d, std::nextafter(d, 0.0), d,
                                 std::nextafter(d, 1e300), 1.5 * d});
  }
  constexpr CellFunction kFunctions[] = {
      CellFunction::Inv,   CellFunction::Buf,  CellFunction::Nand2,
      CellFunction::Nand3, CellFunction::Nor2, CellFunction::Nor3,
      CellFunction::Xor2,  CellFunction::LevelConverter};
  for (CellFunction fn : kFunctions) {
    for (VthClass vth : {VthClass::Low, VthClass::High}) {
      for (VddDomain dom : {VddDomain::High, VddDomain::Low}) {
        for (double minDrive : probes) {
          const Cell* expected = scanPick(lib, fn, minDrive, vth, dom);
          if (expected == nullptr) {
            EXPECT_THROW(static_cast<void>(lib.pick(fn, minDrive, vth, dom)),
                         std::out_of_range);
          } else {
            EXPECT_EQ(&lib.pick(fn, minDrive, vth, dom), expected)
                << nameOf(fn) << " minDrive " << minDrive;
          }
        }
      }
    }
  }
}

TEST(LibraryPickIndex, MatchesScanOnDefaultLibrary) {
  expectPickMatchesScan(lib100());
}

TEST(LibraryPickIndex, MatchesScanOnSingleVthSingleVddLibrary) {
  LibraryConfig cfg;
  cfg.dualVth = false;
  cfg.dualVdd = false;
  expectPickMatchesScan(Library(tech::nodeByFeature(100), cfg));
}

TEST(LibraryPickIndex, MatchesScanWithUnsortedDuplicateDrives) {
  // Equal drives tie-break to the first cell in library order, and a
  // repeated function contributes a second run of cells to its corner.
  LibraryConfig cfg;
  cfg.driveStrengths = {8, 1, 2, 2, 0.5, 8};
  cfg.functions = {CellFunction::Nand2, CellFunction::Inv,
                   CellFunction::Nand2};
  expectPickMatchesScan(Library(tech::nodeByFeature(100), cfg));
}

}  // namespace
}  // namespace nano::circuit
