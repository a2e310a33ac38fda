// A chain of inverters: the smallest netlist with a known critical path,
// which the STA, SSTA, power and optimizer tests build their hand-checked
// cases on. No binary needs it, so it lives with the tests.
#pragma once

#include "circuit/library.h"
#include "circuit/netlist.h"

namespace nano::circuit {

/// A chain of `length` inverters (drive `drive`), 1 input, 1 output.
Netlist inverterChain(const Library& library, int length, double drive = 1.0);

}  // namespace nano::circuit
