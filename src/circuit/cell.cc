#include "circuit/cell.h"

#include <cmath>
#include <stdexcept>

#include "util/units.h"

namespace nano::circuit {

using namespace nano::units;

int faninOf(CellFunction f) {
  switch (f) {
    case CellFunction::Inv:
    case CellFunction::Buf:
    case CellFunction::LevelConverter:
      return 1;
    case CellFunction::Nand2:
    case CellFunction::Nor2:
    case CellFunction::Xor2:
      return 2;
    case CellFunction::Nand3:
    case CellFunction::Nor3:
      return 3;
  }
  throw std::logic_error("faninOf: bad function");
}

double logicalEffortOf(CellFunction f) {
  switch (f) {
    case CellFunction::Inv: return 1.0;
    case CellFunction::Buf: return 1.0;
    case CellFunction::Nand2: return 4.0 / 3.0;
    case CellFunction::Nand3: return 5.0 / 3.0;
    case CellFunction::Nor2: return 5.0 / 3.0;
    case CellFunction::Nor3: return 7.0 / 3.0;
    case CellFunction::Xor2: return 2.0;
    case CellFunction::LevelConverter: return 1.5;
  }
  throw std::logic_error("logicalEffortOf: bad function");
}

double parasiticOf(CellFunction f) {
  switch (f) {
    case CellFunction::Inv: return 1.0;
    case CellFunction::Buf: return 2.0;
    case CellFunction::Nand2: return 2.0;
    case CellFunction::Nand3: return 3.0;
    case CellFunction::Nor2: return 2.0;
    case CellFunction::Nor3: return 3.0;
    case CellFunction::Xor2: return 4.0;
    // Cross-coupled pull-up fights the input: slow (~3 inverter parasitics,
    // giving the ~2 FO4 conversion penalty quoted in multi-Vdd studies).
    case CellFunction::LevelConverter: return 6.0;
  }
  throw std::logic_error("parasiticOf: bad function");
}

double leakageFactorOf(CellFunction f) {
  switch (f) {
    case CellFunction::Inv: return 1.0;
    case CellFunction::Buf: return 1.8;
    case CellFunction::Nand2: return 0.7;   // stacked NMOS off-state
    case CellFunction::Nand3: return 0.55;
    case CellFunction::Nor2: return 0.8;
    case CellFunction::Nor3: return 0.7;
    case CellFunction::Xor2: return 1.6;
    case CellFunction::LevelConverter: return 1.5;
  }
  throw std::logic_error("leakageFactorOf: bad function");
}

const char* nameOf(CellFunction f) {
  switch (f) {
    case CellFunction::Inv: return "INV";
    case CellFunction::Buf: return "BUF";
    case CellFunction::Nand2: return "NAND2";
    case CellFunction::Nand3: return "NAND3";
    case CellFunction::Nor2: return "NOR2";
    case CellFunction::Nor3: return "NOR3";
    case CellFunction::Xor2: return "XOR2";
    case CellFunction::LevelConverter: return "LVLCONV";
  }
  throw std::logic_error("nameOf: bad function");
}

double Cell::switchingEnergy(double loadCap) const {
  return (loadCap + selfCap) * vdd * vdd;
}

CellCharacterizer::CellCharacterizer(const tech::TechNode& node, double vthLow,
                                     double vthHigh, double vddHigh,
                                     double vddLow, double temperature)
    : node_(&node),
      vthLow_(vthLow),
      vthHigh_(vthHigh),
      vddHigh_(vddHigh),
      vddLow_(vddLow),
      temperature_(temperature) {
  if (vddHigh <= 0 || vddLow <= 0 || vddLow > vddHigh) {
    throw std::invalid_argument("CellCharacterizer: bad supplies");
  }
  if (vthHigh < vthLow) {
    throw std::invalid_argument("CellCharacterizer: vthHigh < vthLow");
  }
  // Memoize the four corner unit inverters up front: every characterize()
  // call used to rebuild an InverterModel (two self-consistent Ion solves
  // plus the leakage evaluation) for one of these fixed corners. The Vth
  // is specified at the corner's operating supply (DIBL reference = vdd),
  // matching how a library would be characterized per power domain. Each
  // stored value is a whole historical subexpression, so the memo changes
  // no bits.
  const device::GateGeometry unitGeom{2.0, 4.0};
  const double drawnL = node_->featureNm * nm;
  for (const VthClass cls : {VthClass::Low, VthClass::High}) {
    for (const VddDomain domain : {VddDomain::High, VddDomain::Low}) {
      const double vdd = vddOf(domain);
      const device::InverterModel unit(*node_, vthOf(cls), vdd, unitGeom,
                                       temperature_);
      UnitCorner& c =
          unit_[static_cast<int>(cls)][static_cast<int>(domain)];
      const double reqN = 0.75 * vdd / unit.driveCurrentN();
      const double reqP = 0.75 * vdd / unit.driveCurrentP();
      c.r = 0.5 * (reqN + reqP);
      c.cin = unit.inputCap();
      c.cout = unit.outputCap();
      c.leakage = unit.leakagePower();
      c.area = (unit.wn() + unit.wp()) * 5.0 * drawnL;
    }
  }
}

double CellCharacterizer::vddOf(VddDomain domain) const {
  return domain == VddDomain::High ? vddHigh_ : vddLow_;
}

double CellCharacterizer::vthOf(VthClass cls) const {
  return cls == VthClass::Low ? vthLow_ : vthHigh_;
}

Cell CellCharacterizer::characterize(CellFunction function, double drive,
                                     VthClass vth, VddDomain domain) const {
  if (drive <= 0) throw std::invalid_argument("characterize: drive <= 0");
  const double vdd = vddOf(domain);
  const UnitCorner& unit =
      unit_[static_cast<int>(vth)][static_cast<int>(domain)];

  Cell cell;
  cell.function = function;
  cell.vth = vth;
  cell.vddDomain = domain;
  cell.drive = drive;
  cell.vdd = vdd;
  cell.inputCap = logicalEffortOf(function) * drive * unit.cin;
  cell.driveResistance = unit.r / drive;
  cell.selfCap = parasiticOf(function) * drive * unit.cout;
  cell.leakage = leakageFactorOf(function) * drive * unit.leakage *
                 static_cast<double>(faninOf(function));
  cell.area = unit.area * drive * (0.7 + 0.5 * faninOf(function));
  return cell;
}

}  // namespace nano::circuit
