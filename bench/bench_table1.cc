// Reproduces Table 1: recent published NMOS device results compared with
// ITRS projections, plus the paper's two take-aways (no sub-1 V technology
// meets the Ion target; historical reports under-estimate production Ion).
#include <iostream>

#include "device/mosfet.h"
#include "tech/literature.h"
#include "util/table.h"

int main() {
  using namespace nano;
  using util::fmt;

  std::cout << "Table 1: recent NMOS device results vs ITRS projections\n";
  util::TextTable t({"reference", "node (nm)", "Tox (A)", "Tox kind",
                     "Vdd (V)", "Ion (uA/um)", "Ioff (nA/um)",
                     "meets 750 target"});
  for (const auto& d : tech::table1Devices()) {
    t.addRow({d.reference, d.itrsNode, fmt(d.toxAngstrom, 0),
              d.toxKind == tech::ToxKind::Physical ? "physical" : "electrical",
              fmt(d.vdd, 2), fmt(d.ionUaPerUm, 0), fmt(d.ioffNaPerUm, 0),
              d.ionUaPerUm >= 750.0 ? "yes" : "no"});
  }
  t.print(std::cout);

  std::cout << "\nKey observations (paper Section 3.1):\n";
  int sub1V = 0, sub1VMeeting = 0;
  for (const auto& d : tech::table1Devices()) {
    if (d.isItrsProjection || d.vdd >= 1.0) continue;
    ++sub1V;
    if (d.ionUaPerUm >= 750.0) ++sub1VMeeting;
  }
  std::cout << " * sub-1 V published devices meeting the 750 uA/um target: "
            << sub1VMeeting << " of " << sub1V
            << " (paper: none come close)\n";
  std::cout << " * historical pre-production reports under-estimate "
               "production Ion by ~"
            << fmt(100 * tech::historicalIonUnderestimate(), 0)
            << " % [30,31]\n";

  // Model cross-check: what Vdd does the compact model need for the 70 nm
  // node to reach 750 uA/um? (The published 70 nm parts needed 1.2 V.)
  const auto& n70 = tech::nodeByFeature(70);
  const double vthAt09 = device::solveVthForIon(n70, n70.ionTarget);
  const double vthAt12 =
      device::solveVthForIon(n70, n70.ionTarget, device::GateStack::Poly, 1.2);
  std::cout << " * model: 70 nm meets 750 uA/um at 0.9 V only with Vth = "
            << fmt(vthAt09, 3) << " V (Ioff "
            << fmt(device::Mosfet::fromNode(n70, vthAt09, n70.vdd).ioff() * 1e3,
                   0)
            << " nA/um); at 1.2 V a comfortable Vth = " << fmt(vthAt12, 3)
            << " V suffices (Ioff "
            << fmt(device::Mosfet::fromNode(n70, vthAt12, 1.2).ioff() * 1e3, 1)
            << " nA/um), matching the published 1.2 V parts\n";
  return 0;
}
