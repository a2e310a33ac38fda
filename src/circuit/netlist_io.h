// Plain-text netlist serialization: a small, line-oriented format that
// prints a design so it can be diffed or fingerprinted. Cells are written
// as their (function, drive, Vth, Vdd-domain) corner.
//
//   # comment
//   netlist wirecap <F/fanout> outload <F>
//   input <id>
//   gate <id> <FUNCTION> drive <x> vth <low|high> vdd <high|low> fanins <id...>
//   output <id>
//
// Node ids appear in topological order (inputs/gates before use),
// matching the in-memory construction discipline.
#pragma once

#include <iosfwd>

#include "circuit/netlist.h"

namespace nano::circuit {

/// Serialize `netlist` to `os`. Doubles are written at precision 17, so
/// equal netlists give equal bytes.
void writeNetlist(std::ostream& os, const Netlist& netlist);

}  // namespace nano::circuit
