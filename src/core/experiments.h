// Experiment drivers: one function per paper table/figure, each returning
// the data series the paper plots (with the paper's reported values carried
// alongside for comparison). Shared by the bench binaries and the tests.
#pragma once

#include <array>
#include <vector>

#include "powergrid/irdrop.h"
#include "tech/itrs.h"

namespace nano::core {

// ---------------------------------------------------------------- Table 2

/// One node of the analytical Ioff-scaling table.
struct Table2Row {
  int nodeNm = 0;
  double vdd = 0.0;
  double coxeNorm = 0.0;       ///< electrical Cox, normalized to 180 nm
  double coxPhysNorm = 0.0;    ///< physical Cox, normalized to 180 nm
  double vthRequired = 0.0;    ///< V, for Ion = 750 uA/um
  double ioffNaUm = 0.0;       ///< model Ioff, nA/um
  double vthMetal = 0.0;       ///< metal-gate variant Vth
  double ioffMetalNaUm = 0.0;  ///< metal-gate Ioff, nA/um
  double ioffItrsNaUm = 0.0;   ///< ITRS projection
  // Paper-reported values for side-by-side comparison (NaN when the paper
  // does not report one).
  double paperVth = 0.0;
  double paperIoff = 0.0;
  double paperIoffMetal = 0.0;
};

struct Table2 {
  std::vector<Table2Row> rows;   ///< 180 -> 35 nm at nominal Vdd
  Table2Row row50At07;           ///< the parenthetical 50 nm @ 0.7 V case
  /// Roadmap Ioff growth factors (180 nm -> 35 nm).
  double modelGrowth = 0.0;
  double itrsGrowth = 0.0;
};

Table2 computeTable2();

// --------------------------------------------------------------- Figure 1

/// Pstatic/Pdynamic vs switching activity at 85 C for the three corners
/// the paper plots.
struct Fig1Point {
  double activity = 0.0;
  double ratio70nm09V = 0.0;
  double ratio50nm07V = 0.0;
  double ratio50nm06V = 0.0;
};
std::vector<Fig1Point> computeFigure1(int points = 9);

// --------------------------------------------------------------- Figure 2

/// Dual-Vth scalability: Ion gain of a -100 mV Vth step and the Ioff
/// penalty of a +20 % Ion target, per node.
struct Fig2Point {
  int nodeNm = 0;
  double ionGainPercent = 0.0;    ///< Ion increase for dVth = -100 mV
  double ioffPenaltyFor20 = 0.0;  ///< Ioff multiplier for +20 % Ion
};
std::vector<Fig2Point> computeFigure2();

// ----------------------------------------------------------- Figures 3, 4

/// Vth scaling policy as Vdd is reduced below nominal (35 nm).
enum class VthPolicy {
  Constant,        ///< Vth fixed at the nominal-Vdd value
  ConstantPstatic, ///< Vth lowered so Vdd*Ioff stays constant
  Conservative,    ///< Vth lowered so Ioff stays constant (Pstatic ~ Vdd)
};
inline constexpr std::array<VthPolicy, 3> kVthPolicies = {
    VthPolicy::Constant, VthPolicy::ConstantPstatic, VthPolicy::Conservative};
const char* policyName(VthPolicy policy);

/// One Vdd sample of Figures 3 and 4.
struct Fig34Point {
  double vdd = 0.0;
  std::array<double, 3> vthDesign{};   ///< design Vth per policy
  std::array<double, 3> delayNorm{};   ///< delay / delay(nominal) (Figure 3)
  std::array<double, 3> pdynOverPstat{};  ///< at activity 0.1 (Figure 4)
};

/// Sweep Vdd from `vddMin` to the node's nominal supply.
std::vector<Fig34Point> computeFigure34(int nodeNm = 35, int points = 9,
                                        double activity = 0.1,
                                        double vddMin = 0.2);

/// The Section 3.3 headline numbers.
struct Section33Claims {
  double delayRatioConstVthAt02 = 0.0;   ///< paper: 3.7x
  double delayRatioScaledAt02 = 0.0;     ///< paper: < 1.3x
  double dynReductionAt02 = 0.0;         ///< paper: 89 %
  double vddAtRatio10 = 0.0;             ///< paper: ~0.44 V
  double dynReductionAtRatio10 = 0.0;    ///< paper: 46 %
};
Section33Claims computeSection33Claims(double activity = 0.1);

// --------------------------------------------------------------- Figure 5

struct Fig5Row {
  int nodeNm = 0;
  powergrid::IrDropReport minPitch;
  powergrid::IrDropReport itrs;
};
std::vector<Fig5Row> computeFigure5(bool withMeshCrossCheck = false);

}  // namespace nano::core
