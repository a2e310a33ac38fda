#include "power/state_leakage.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "power/standby.h"
#include "util/units.h"

namespace nano::power {

using circuit::Cell;
using circuit::CellFunction;
using circuit::Netlist;
using circuit::VthClass;

namespace {

using namespace nano::units;

/// Per-node, per-Vth-flavor leakage context: off-currents and stack
/// factors, computed once and reused for every gate.
struct LeakContext {
  const tech::TechNode* node = nullptr;
  double vthLow = 0.0;
  // Indexed by VthClass (0 = low, 1 = high).
  double ioffPerWidth[2] = {0.0, 0.0};   // A/m at full vds
  double stackFactor2[2] = {1.0, 1.0};
  double stackFactor3[2] = {1.0, 1.0};

  explicit LeakContext(const tech::TechNode& n) : node(&n) {
    vthLow = device::solveVthForIon(n, n.ionTarget);
    for (int k = 0; k < 2; ++k) {
      const double vth = vthLow + (k ? circuit::kDualVthOffset : 0.0);
      const device::Mosfet dev = device::Mosfet::fromNode(n, vth, n.vdd);
      ioffPerWidth[k] = dev.ioff();
      stackFactor2[k] = stackLeakageFactor(dev, 2);
      stackFactor3[k] = stackLeakageFactor(dev, 3);
    }
  }

  double stackFactor(int flavor, int offDevices) const {
    switch (offDevices) {
      case 0: return 0.0;
      case 1: return 1.0;
      case 2: return stackFactor2[flavor];
      default: return stackFactor3[flavor];
    }
  }
};

const LeakContext& contextFor(const tech::TechNode& node) {
  // One cached context per node (the roadmap is a static table, so the
  // pointer is a stable key).
  static std::vector<std::pair<const tech::TechNode*, LeakContext>> cache;
  for (const auto& [key, ctx] : cache) {
    if (key == &node) return ctx;
  }
  cache.emplace_back(&node, LeakContext(node));
  return cache.back().second;
}

int popcount(unsigned x) {
  int n = 0;
  for (; x; x >>= 1) n += static_cast<int>(x & 1u);
  return n;
}

}  // namespace

double cellStateLeakage(const Cell& cell, const tech::TechNode& node,
                        unsigned inputsHigh) {
  const LeakContext& ctx = contextFor(node);
  const int flavor = cell.vth == VthClass::High ? 1 : 0;
  const double ioffN = ctx.ioffPerWidth[flavor];
  const double ioffP = device::kPmosCurrentFactor * ioffN;
  // Device widths mirror the characterizer's unit inverter scaled by drive.
  const double drawnL = node.featureNm * nm;
  const double wn = 2.0 * drawnL * cell.drive;
  const double wp = 4.0 * drawnL * cell.drive;

  const int fanin = cell.fanin();
  const unsigned mask = (1u << fanin) - 1u;
  const int high = popcount(inputsHigh & mask);
  const int low = fanin - high;

  switch (cell.function) {
    case CellFunction::Inv:
      // Input high: NMOS on, PMOS leaks; input low: NMOS leaks.
      return cell.vdd * (high ? ioffP * wp : ioffN * wn);
    case CellFunction::Buf:
    case CellFunction::LevelConverter: {
      // Two back-to-back stages: one leaks through N, the other through P.
      return cell.vdd * 0.5 * (ioffN * wn + ioffP * wp) * 2.0;
    }
    case CellFunction::Nand2:
    case CellFunction::Nand3: {
      if (low == 0) {
        // Output low: all parallel PMOS off at full vds.
        return cell.vdd * fanin * ioffP * wp;
      }
      // Output high: `low` NMOS devices off in the series stack.
      return cell.vdd * ioffN * wn * ctx.stackFactor(flavor, low);
    }
    case CellFunction::Nor2:
    case CellFunction::Nor3: {
      if (high == 0) {
        // Output high: all parallel NMOS off at full vds.
        return cell.vdd * fanin * ioffN * wn;
      }
      // Output low: `high` PMOS devices off in the series pull-up.
      return cell.vdd * ioffP * wp * ctx.stackFactor(flavor, high);
    }
    case CellFunction::Xor2:
      // Pass-gate style: no strong state dependence; use the averaged
      // characterized value.
      return cell.leakage;
  }
  throw std::logic_error("cellStateLeakage: bad function");
}

double stateAwareLeakage(const Netlist& netlist, const tech::TechNode& node,
                         const ActivityResult& activity) {
  double total = 0.0;
  for (int g : netlist.gateIds()) {
    const auto& nd = netlist.node(g);
    const int fanin = nd.cell.fanin();
    const unsigned states = 1u << fanin;
    for (unsigned s = 0; s < states; ++s) {
      double p = 1.0;
      for (int k = 0; k < fanin; ++k) {
        const double pk =
            activity.probability[static_cast<std::size_t>(nd.fanins
                [static_cast<std::size_t>(k)])];
        p *= (s >> k) & 1u ? pk : 1.0 - pk;
      }
      if (p > 0.0) total += p * cellStateLeakage(nd.cell, node, s);
    }
  }
  return total;
}

LeakageBounds leakageStateBounds(const Netlist& netlist,
                                 const tech::TechNode& node) {
  LeakageBounds b;
  for (int g : netlist.gateIds()) {
    const auto& nd = netlist.node(g);
    const unsigned states = 1u << nd.cell.fanin();
    double lo = cellStateLeakage(nd.cell, node, 0);
    double hi = lo;
    for (unsigned s = 1; s < states; ++s) {
      const double leak = cellStateLeakage(nd.cell, node, s);
      lo = std::min(lo, leak);
      hi = std::max(hi, leak);
    }
    b.minimum += lo;
    b.maximum += hi;
  }
  return b;
}

}  // namespace nano::power
