// Section 2.2 inductance claim: at the delay-optimal repeater pitch, a
// global-wire segment sits at the RC/RLC boundary at every roadmap node —
// lightly attenuated, with a time of flight comparable to its RC delay —
// which is why the paper lists full-chip inductance extraction among the
// nanometer signal-integrity challenges.
#include <iostream>

#include "interconnect/rlc.h"
#include "util/table.h"

int main() {
  using namespace nano;
  using util::fmt;

  std::cout << "RLC regime of one delay-optimal repeater segment (top-level"
               " wire, return path one bump pitch away):\n";
  util::TextTable t({"node (nm)", "attenuation", "time of flight / RC",
                     "Z0 (ohm)", "inductance matters"});
  for (int f : tech::roadmapFeatures()) {
    const interconnect::RlcReport rep =
        interconnect::repeaterSegmentRlc(tech::nodeByFeature(f));
    t.addRow({std::to_string(f), fmt(rep.attenuation, 2),
              fmt(rep.timeOfFlight / rep.rcDelay, 2),
              fmt(rep.characteristicImpedance, 1),
              rep.inductanceMatters ? "yes" : "no"});
  }
  t.print(std::cout);
  std::cout << "(attenuation = R_segment / 2 Z0: well below 1 means the line"
               " rings instead of diffusing; the paper lists full-chip"
               " inductance extraction among the nanometer challenges)\n";
  return 0;
}
