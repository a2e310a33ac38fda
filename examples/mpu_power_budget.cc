// Scenario: power-budgeting a hypothetical 70 nm desktop MPU.
//
// Walks the paper's Section 2.1/3.1 reasoning as a design exercise:
//  1. total and static power budgets from the roadmap,
//  2. packaging choice with and without dynamic thermal management,
//  3. a closed-loop DTM simulation on a day-in-the-life workload,
//  4. the standby-current problem and what dual-Vth buys back.
#include <iostream>

#include "core/analysis.h"
#include "device/mosfet.h"
#include "thermal/cooling_cost.h"
#include "thermal/dtm.h"
#include "util/table.h"
#include "util/units.h"

int main() {
  using namespace nano;
  using namespace nano::units;
  using util::fmt;

  const auto& node = tech::nodeByFeature(70);
  std::cout << "=== Power budget for a " << node.featureNm << " nm MPU ===\n"
            << "Roadmap: " << fmt(node.maxPower, 0) << " W max at "
            << fmt(node.vdd, 2) << " V (" << fmt(node.supplyCurrent(), 0)
            << " A), Tj <= " << fmt(toCelsius(node.tjMax), 0) << " C\n"
            << "ITRS static cap (10 % of max): "
            << fmt(0.1 * node.maxPower, 1) << " W = "
            << fmt(0.1 * node.maxPower / node.vdd, 1) << " A of standby"
            << " current\n\n";

  // --- Packaging, with and without DTM --------------------------------
  std::cout << "Packaging decision:\n";
  const auto savings =
      thermal::dtmCostSavings(node.maxPower, node.tjMax, node.tAmbient);
  util::TextTable p({"rating", "power (W)", "theta_ja needed", "solution",
                     "cost"});
  const auto& solTheo = thermal::cheapestSolutionFor(
      savings.theoreticalPower, node.tjMax, node.tAmbient);
  p.addRow({"theoretical worst case", fmt(savings.theoreticalPower, 0),
            fmt(savings.thetaJaTheoretical, 3), solTheo.name,
            "$" + fmt(savings.costTheoreticalUsd, 0)});
  const auto& solEff = thermal::cheapestSolutionFor(
      savings.effectivePower, node.tjMax, node.tAmbient);
  p.addRow({"effective worst case (DTM)", fmt(savings.effectivePower, 0),
            fmt(savings.thetaJaEffective, 3), solEff.name,
            "$" + fmt(savings.costEffectiveUsd, 0)});
  p.print(std::cout);

  // --- Closed-loop DTM check ------------------------------------------
  std::cout << "\nClosed-loop check with the cheaper package:\n";
  const thermal::ThermalPackage pkg(solEff.thetaJa, 0.02);
  thermal::DtmPolicy policy = thermal::defaultPolicyFor(node);
  util::Rng rng(7);
  const auto day = thermal::typicalApplication(rng, 0.5);
  const auto dayResult = thermal::simulateDtm(pkg, day, node.maxPower,
                                              node.tAmbient, policy);
  const auto virusResult =
      thermal::simulateDtm(pkg, thermal::powerVirus(0.5), node.maxPower,
                           node.tAmbient, policy);
  std::cout << "  applications: max Tj "
            << fmt(toCelsius(dayResult.maxTemperature), 1) << " C, "
            << fmt(100 * dayResult.throughputFraction, 1)
            << " % throughput\n"
            << "  power virus:  max Tj "
            << fmt(toCelsius(virusResult.maxTemperature), 1) << " C, "
            << fmt(100 * virusResult.throughputFraction, 1)
            << " % throughput ("
            << fmt(100 * virusResult.throttledFraction, 0)
            << " % of time throttled)\n";

  // --- Standby current and dual-Vth ------------------------------------
  std::cout << "\nStandby current at the Table-2 operating point (and how"
               " it explodes two nodes later):\n";
  util::TextTable s({"node (nm)", "Ioff (nA/um)", "all low-Vth (A)",
                     "budget (A)", "after dual-Vth (A)"});
  for (int f : {70, 50, 35}) {
    const auto& n = tech::nodeByFeature(f);
    const double vth = device::solveVthForIon(n, n.ionTarget);
    const auto dev = device::Mosfet::fromNode(n, vth, n.vdd);
    const double totalWidth = static_cast<double>(n.logicTransistors) / 2.0 *
                              3.0 * (n.featureNm * nm);
    const double standby = dev.ioff() * totalWidth;
    const double budget = 0.1 * n.maxPower / n.vdd;
    // 75 % of device width moves to the +100 mV flavor (~15x less leaky).
    const double afterDualVth = standby * (0.25 + 0.75 / 15.2);
    s.addRow({std::to_string(f), fmt(dev.ioff() * 1e3, 0), fmt(standby, 1),
              fmt(budget, 1), fmt(afterDualVth, 1)});
  }
  s.print(std::cout);
  std::cout << "At 70 nm a single low Vth still fits the budget; by 50 nm"
               " it is far over, and dual-Vth insertion (Section 3.2.2) is"
               " what brings standby current back toward the ITRS cap —"
               " the paper's \"98 % static power reduction needed by the"
               " end of the roadmap\" in action.\n";
  return 0;
}
