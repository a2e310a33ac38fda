#include "support/inverter_chain.h"

#include <stdexcept>

namespace nano::circuit {

Netlist inverterChain(const Library& library, int length, double drive) {
  if (length < 1) throw std::invalid_argument("inverterChain: length < 1");
  const auto& node = library.characterizer().node();
  Netlist nl(defaultWireCapPerFanout(node),
             4.0 * library.smallestInverterInputCap());
  const Cell& inv = library.pick(CellFunction::Inv, drive);
  int prev = nl.addInput();
  for (int i = 0; i < length; ++i) prev = nl.addGate(inv, {prev});
  nl.markOutput(prev);
  nl.validate();
  return nl;
}

}  // namespace nano::circuit
