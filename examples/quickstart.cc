// Quickstart: characterize a nanometer technology node end to end with a
// few library calls — device corner, gate speed, power budget, packaging,
// global wiring and power delivery.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart [feature_nm]
#include <cstdlib>
#include <string>
#include <iostream>

#include "circuit/generator.h"
#include "core/analysis.h"
#include "core/report.h"
#include "device/gate_model.h"
#include "obs/obs.h"
#include "opt/dual_vth.h"
#include "powergrid/grid_model.h"
#include "sim/circuit_sim.h"

namespace {

// With observability on, exercise every instrumented subsystem once so the
// run report shows a full phase breakdown: STA + dual-Vth on a small
// netlist, a power-grid CG solve, and a transient inverter-chain sim (the
// device::solveVthForIon bisection is already covered by summarizeNode).
void runInstrumentedMiniFlow(int feature) {
  using namespace nano;
  NANO_OBS_SPAN("quickstart/mini_flow");
  const auto& node = tech::nodeByFeature(feature);
  const circuit::Library lib(node);
  util::Rng rng(1);
  circuit::GeneratorConfig cfg;
  cfg.gates = 400;
  cfg.outputs = 25;
  const circuit::Netlist nl = circuit::pipelinedLogic(lib, cfg, rng, 8);
  (void)opt::runDualVth(nl, lib);

  powergrid::GridConfig grid;
  grid.railPitch = grid.bumpPitch = 160e-6;
  grid.railWidth = 2e-6;
  grid.tilesX = grid.tilesY = 3;
  grid.hotspotCellsRail = 1;
  (void)powergrid::solveGrid(grid);

  const double vth = device::solveVthForIon(node, node.ionTarget);
  auto model =
      std::make_shared<device::Mosfet>(
          device::Mosfet::fromNode(node, vth, node.vdd));
  device::InverterModel inv(node, vth, node.vdd);
  sim::Circuit ckt;
  const int vdd = ckt.node();
  ckt.add(sim::VoltageSource{vdd, 0, sim::Waveform::dc(node.vdd)});
  const int in = ckt.node();
  ckt.add(sim::VoltageSource{
      in, 0, sim::Waveform::pulse(0, node.vdd, 20e-12, 5e-12, 1, 5e-12)});
  int prev = in;
  for (int i = 0; i < 4; ++i) {
    const int out = ckt.node();
    ckt.addInverter(prev, out, vdd, model, inv.wn(), inv.wp());
    prev = out;
  }
  sim::Simulator sim(ckt);
  (void)sim.transient(100e-12, 0.5e-12);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nano;

  int feature = 50;  // default: the 50 nm node the paper centers on
  if (argc > 1 && std::string(argv[1]) == "all") {
    core::printRoadmapComparison(std::cout);
    return 0;
  }
  if (argc > 1 && std::string(argv[1]) == "--report") {
    obs::setEnabled(true);
    if (argc > 2) feature = std::atoi(argv[2]);
  } else if (argc > 1) {
    feature = std::atoi(argv[1]);
  }

  std::cout << "nanodesign quickstart — one-call node characterization\n\n";
  try {
    const core::NodeSummary summary = core::summarizeNode(feature);
    core::printNodeSummary(std::cout, summary);
  } catch (const std::out_of_range&) {
    std::cerr << "Node " << feature
              << " nm is not on the roadmap. Available:";
    for (int f : tech::roadmapFeatures()) std::cerr << ' ' << f;
    std::cerr << '\n';
    return 1;
  }

  std::cout << "\nLower-level access: the same numbers come from the"
               " individual models —\n"
               "  device::solveVthForIon()        Table 2's Vth solve\n"
               "  device::InverterModel           gate delay/energy/leakage\n"
               "  interconnect::analyzeGlobalWiring()  repeater rollup\n"
               "  thermal::cheapestSolutionFor()  packaging pick\n"
               "  powergrid::minPitchReport()     Figure 5 rail sizing\n"
               "See the bench/ binaries for every figure and table of the"
               " paper.\n";

  // With NANO_OBS=1 (or --report) every solver above left timers and
  // convergence counters behind; show where the time went.
  if (obs::enabled()) {
    runInstrumentedMiniFlow(feature);
    std::cout << '\n';
    obs::printRunReport(std::cout);
  } else {
    std::cout << "\nRun with --report (or NANO_OBS=1) for a phase/solver"
                 " breakdown of this run.\n";
  }
  return 0;
}
