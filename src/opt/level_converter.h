// Level-converter insertion for multi-Vdd netlists: rebuilds a netlist
// with a converting stage on every low-Vdd -> high-Vdd crossing and on
// low-Vdd -> primary-output boundaries (conversion at the register, as in
// clustered voltage scaling).
#pragma once

#include "circuit/library.h"
#include "circuit/netlist.h"

namespace nano::opt {

/// Result of conversion insertion.
struct ConversionReport {
  circuit::Netlist netlist{0.0, 0.0};
  int convertersAdded = 0;
};

/// Rebuild `src` with level converters inserted. One converter is shared by
/// all high-domain sinks of a low-domain gate, and a low-Vdd gate that
/// feeds a primary output feeds it through a converter.
ConversionReport insertLevelConverters(const circuit::Netlist& src,
                                       const circuit::Library& library);

}  // namespace nano::opt
