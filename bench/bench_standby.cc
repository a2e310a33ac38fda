// Section 3.2.1 claims: standby-power techniques and their scaling.
//  * MTCMOS: near-total standby leakage elimination, with the delay/area
//    trade ("adds delay, which can be reduced by increasing its area")
//  * transistor stacks [38]: leakage control without sleep devices
//  * intra-cell mixed-Vth stacks (Section 3.3): substantial leakage
//    savings, minimal delay penalty
//  * reverse body bias [36]: a lever that shrinks with scaling — the
//    paper's reason the technique "does not scale well".
#include <iostream>

#include "circuit/generator.h"
#include "power/state_leakage.h"
#include "power/standby.h"
#include "util/table.h"

int main() {
  using namespace nano;
  using util::fmt;

  std::cout << "MTCMOS sleep-transistor sizing (1 mm block NMOS width, 2 %"
               " simultaneous switching, 5 % delay budget):\n";
  util::TextTable m({"node (nm)", "sleep width (um)", "area overhead",
                     "standby leakage cut", "virtual-rail drop (mV)"});
  for (int f : tech::roadmapFeatures()) {
    const auto& node = tech::nodeByFeature(f);
    const double vth = device::solveVthForIon(node, node.ionTarget);
    power::MtcmosBlock block;
    block.totalDeviceWidth = 1e-3;
    block.peakCurrent = 0.02 * block.totalDeviceWidth * node.ionTarget;
    block.vthLow = vth;
    const auto d = power::sizeSleepTransistor(node, block);
    m.addRow({std::to_string(f), fmt(d.width * 1e6, 0),
              fmt(100 * d.areaOverhead, 1) + " %",
              fmt(100 * d.standbyReduction(), 2) + " %",
              fmt(d.virtualRailDrop * 1e3, 0)});
  }
  m.print(std::cout);
  std::cout << "(paper: MTCMOS virtually eliminates idle leakage but costs"
               " area and gives no active-mode reduction)\n\n";

  std::cout << "Delay/area trade at 70 nm (tighter delay budget => bigger"
               " sleep device):\n";
  {
    const auto& node = tech::nodeByFeature(70);
    const double vth = device::solveVthForIon(node, node.ionTarget);
    power::MtcmosBlock block;
    block.totalDeviceWidth = 1e-3;
    block.peakCurrent = 0.02 * block.totalDeviceWidth * node.ionTarget;
    block.vthLow = vth;
    util::TextTable t({"delay budget", "sleep width (um)", "area overhead"});
    for (double penalty : {0.02, 0.05, 0.10, 0.20}) {
      const auto d = power::sizeSleepTransistor(node, block, penalty);
      t.addRow({fmt(100 * penalty, 0) + " %", fmt(d.width * 1e6, 0),
                fmt(100 * d.areaOverhead, 1) + " %"});
    }
    t.print(std::cout);
  }

  std::cout << "\nStack effect [38] and intra-cell mixed-Vth stacks"
               " (Section 3.3):\n";
  util::TextTable s({"node (nm)", "2-stack leakage", "3-stack leakage",
                     "stack node (mV)", "mixed-Vth leakage", "mixed delay"});
  for (int f : tech::roadmapFeatures()) {
    const auto& node = tech::nodeByFeature(f);
    const double vth = device::solveVthForIon(node, node.ionTarget);
    const auto dev = device::Mosfet::fromNode(node, vth, node.vdd);
    const auto mixed = power::mixedVthStack(node, vth, vth + 0.1);
    s.addRow({std::to_string(f),
              fmt(power::stackLeakageFactor(dev, 2), 2) + "x",
              fmt(power::stackLeakageFactor(dev, 3), 2) + "x",
              fmt(power::stackIntermediateVoltage(dev) * 1e3, 0),
              fmt(mixed.leakageVsAllLow, 3) + "x",
              fmt(mixed.delayVsAllLow, 2) + "x"});
  }
  s.print(std::cout);
  std::cout << "(a high-Vth device at the bottom of a stack cuts off-state"
               " leakage ~10x for a ~10-20 % pull-down penalty — no sleep"
               " signal, no area hit)\n\n";

  std::cout << "Input-vector control (state-dependent leakage, Section"
               " 3.3): standby leakage of a 500-gate block by input state:\n";
  {
    util::TextTable v({"node (nm)", "expected (uW)", "best vector (uW)",
                       "worst vector (uW)", "best-vs-worst"});
    for (int f : {100, 50, 35}) {
      const auto& node = tech::nodeByFeature(f);
      const circuit::Library lib(node);
      util::Rng rng(4);
      circuit::GeneratorConfig cfg;
      cfg.gates = 500;
      const auto nl = circuit::randomLogic(lib, cfg, rng);
      const auto act = power::propagateActivity(nl);
      const double expected = power::stateAwareLeakage(nl, node, act);
      const auto bounds = power::leakageStateBounds(nl, node);
      v.addRow({std::to_string(f), fmt(expected * 1e6, 2),
                fmt(bounds.minimum * 1e6, 2), fmt(bounds.maximum * 1e6, 2),
                fmt(bounds.maximum / bounds.minimum, 1) + "x"});
    }
    v.print(std::cout);
    std::cout << "(parking the logic in stack-friendly states buys a"
                 " multi-x standby cut with no sleep transistor — the [38]"
                 " single-threshold approach)\n\n";
  }

  std::cout << "Reverse body bias: leakage reduction from -1 V of Vbs"
               " (paper: the knob weakens in scaled devices):\n";
  util::TextTable b({"node (nm)", "body effect (V/V)", "dVth at -1 V (mV)",
                     "leakage reduction"});
  for (int f : tech::roadmapFeatures()) {
    const auto& node = tech::nodeByFeature(f);
    b.addRow({std::to_string(f), fmt(node.bodyEffect, 3),
              fmt(1e3 * node.bodyEffect, 0),
              fmt(power::bodyBiasLeakageReduction(node, 1.0), 1) + "x"});
  }
  b.print(std::cout);
  std::cout << "(387x at 180 nm collapsing to 5x at 35 nm — why the paper"
               " calls substrate-bias Vth control poorly scaling, and why"
               " dual-Vth insertion is \"the only technique used in current"
               " high-end MPUs\")\n";
  return 0;
}
