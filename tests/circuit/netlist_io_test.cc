#include "circuit/netlist_io.h"

#include <gtest/gtest.h>

#include <sstream>

namespace nano::circuit {
namespace {

// The writer's text is what perfbench fingerprints its seeded flow
// netlists by, so the format is pinned byte for byte.
TEST(NetlistIo, WriterPinsTheTextFormat) {
  Netlist nl(0.25, 0.5);
  const int a = nl.addInput();
  const int b = nl.addInput();
  Cell nand;
  nand.function = CellFunction::Nand2;
  nand.drive = 2.0;
  const int g = nl.addGate(nand, {a, b});
  Cell inv;
  inv.function = CellFunction::Inv;
  inv.drive = 0.75;
  inv.vth = VthClass::High;
  inv.vddDomain = VddDomain::Low;
  nl.markOutput(nl.addGate(inv, {g}));
  std::ostringstream os;
  writeNetlist(os, nl);
  EXPECT_EQ(os.str(),
            "# nanodesign netlist v1\n"
            "netlist wirecap 0.25 outload 0.5\n"
            "input 0\n"
            "input 1\n"
            "gate 2 NAND2 drive 2 vth low vdd high fanins 0 1\n"
            "gate 3 INV drive 0.75 vth high vdd low fanins 2\n"
            "output 3\n");
}

}  // namespace
}  // namespace nano::circuit
