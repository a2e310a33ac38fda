// Standard-cell model: logic cells characterized from the compact device
// model with logical-effort-style delay, energy and leakage. Cells carry
// their Vth flavor and Vdd domain so the multi-Vdd / multi-Vth optimizers
// (paper Sections 2.4, 3.2, 3.3) can swap them per gate.
#pragma once


#include "device/gate_model.h"
#include "tech/itrs.h"

namespace nano::circuit {

/// Logic function of a cell.
enum class CellFunction {
  Inv,
  Buf,
  Nand2,
  Nand3,
  Nor2,
  Nor3,
  Xor2,
  LevelConverter,  ///< Vdd,l -> Vdd,h restoring stage (paper Section 2.4)
};

/// Number of logic inputs of a function.
int faninOf(CellFunction function);
/// Logical effort g (input cap per drive relative to an inverter).
double logicalEffortOf(CellFunction function);
/// Parasitic delay p in units of the inverter parasitic.
double parasiticOf(CellFunction function);
/// Leakage factor relative to an equal-drive inverter (series stacks leak
/// less; wide NOR pull-ups leak more).
double leakageFactorOf(CellFunction function);
/// Short name, e.g. "NAND2".
const char* nameOf(CellFunction function);

/// RC gate delay, s: 0.69 * drive resistance * (external load + self
/// cap). The timing model's one delay formula; Cell::delay and
/// NetlistSoA::gateDelay both evaluate it.
inline double rcDelay(double driveResistance, double loadCap, double selfCap) {
  return 0.69 * driveResistance * (loadCap + selfCap);
}

/// Threshold flavor of a cell.
enum class VthClass { Low, High };

/// Supply domain of a cell in a multi-Vdd design.
enum class VddDomain { High, Low };

/// One characterized cell instance. Value type: gates own their cell, so
/// on-the-fly generated sizes (paper Section 2.3) need no registry.
struct Cell {
  CellFunction function = CellFunction::Inv;
  VthClass vth = VthClass::Low;
  VddDomain vddDomain = VddDomain::High;
  double drive = 1.0;           ///< strength, multiples of unit inverter
  double vdd = 0.0;             ///< operating supply, V
  double inputCap = 0.0;        ///< F per input
  double driveResistance = 0.0; ///< ohm, effective switching resistance
  double selfCap = 0.0;         ///< F at the output (diffusion)
  double leakage = 0.0;         ///< W, state-averaged
  double area = 0.0;            ///< m^2

  [[nodiscard]] int fanin() const { return faninOf(function); }
  /// Propagation delay driving `loadCap` (external), s.
  [[nodiscard]] double delay(double loadCap) const {
    return rcDelay(driveResistance, loadCap, selfCap);
  }
  /// Supply energy per output transition driving `loadCap`, J.
  [[nodiscard]] double switchingEnergy(double loadCap) const;
};

/// Characterizes cells of a node at given operating corners.
class CellCharacterizer {
 public:
  /// `vthLow`/`vthHigh`: NMOS thresholds of the two flavors, specified at
  /// the node's nominal Vdd. Pass vthHigh <= vthLow + offset from
  /// makeDualVth() or custom values.
  CellCharacterizer(const tech::TechNode& node, double vthLow, double vthHigh,
                    double vddHigh, double vddLow, double temperature = 300.0);

  [[nodiscard]] const tech::TechNode& node() const { return *node_; }
  [[nodiscard]] double vddOf(VddDomain domain) const;
  [[nodiscard]] double vthOf(VthClass cls) const;

  /// Characterize one cell. `drive` may be fractional (on-the-fly sizes).
  /// Cheap: the unit inverter of each (Vth, Vdd) corner is characterized
  /// once at construction, so this is pure scaling arithmetic.
  [[nodiscard]] Cell characterize(CellFunction function, double drive,
                                  VthClass vth, VddDomain domain) const;

 private:
  /// Unit-inverter quantities of one (Vth flavor, Vdd domain) corner,
  /// hoisted whole from the historical per-call expressions so the memo
  /// is a bitwise no-op.
  struct UnitCorner {
    double r = 0.0;        ///< ohm, mean 0.75*Vdd/Idrive of N and P
    double cin = 0.0;      ///< F, unit input cap
    double cout = 0.0;     ///< F, unit output (diffusion) cap
    double leakage = 0.0;  ///< W, unit inverter leakage
    double area = 0.0;     ///< m^2, unit inverter footprint
  };

  const tech::TechNode* node_;
  double vthLow_;
  double vthHigh_;
  double vddHigh_;
  double vddLow_;
  double temperature_;
  UnitCorner unit_[2][2];  ///< indexed [VthClass][VddDomain]
};

/// The paper's dual-Vth offset: 100 mV between flavors (Section 3.2.2).
inline constexpr double kDualVthOffset = 0.100;
/// The paper's CVS low-supply ratio: Vdd,l ~ 0.65 * Vdd,h (Section 2.4).
inline constexpr double kCvsVddLowRatio = 0.65;

}  // namespace nano::circuit
