#include "circuit/netlist_io.h"

#include <ostream>

namespace nano::circuit {

void writeNetlist(std::ostream& os, const Netlist& netlist) {
  // Exact doubles (wire caps, drives): equal netlists print equal bytes.
  os.precision(17);
  os << "# nanodesign netlist v1\n";
  os << "netlist wirecap " << netlist.wireCapPerFanout() << " outload "
     << netlist.outputLoadCap() << "\n";
  for (int i = 0; i < netlist.nodeCount(); ++i) {
    const auto& n = netlist.node(i);
    if (n.kind == Netlist::NodeKind::PrimaryInput) {
      os << "input " << i << "\n";
    } else {
      os << "gate " << i << ' ' << nameOf(n.cell.function) << " drive "
         << n.cell.drive << " vth "
         << (n.cell.vth == VthClass::Low ? "low" : "high") << " vdd "
         << (n.cell.vddDomain == VddDomain::High ? "high" : "low")
         << " fanins";
      for (int f : n.fanins) os << ' ' << f;
      os << "\n";
    }
  }
  for (int out : netlist.outputs()) os << "output " << out << "\n";
}

}  // namespace nano::circuit
