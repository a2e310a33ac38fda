// The plant's bilinear delay and leakage surfaces against the device model
// they sample: off the grid points, delayScale and leakageScale must stay
// within the error bound stated in scenario/plant.h (and EXPERIMENTS.md)
// of InverterModel evaluated directly at the same (Vdd, temperature),
// normalized by the plant's own reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "device/gate_model.h"
#include "device/mosfet.h"
#include "scenario/plant.h"
#include "support/scenario_oracle.h"
#include "tech/itrs.h"
#include "util/rng.h"

namespace nano::scenario {
namespace {

// The bound plant.h states: relative error of the surfaces off the grid.
constexpr double kDelayBound = 0.005;
constexpr double kLeakageBound = 0.05;

struct Worst {
  double error = 0.0;
  double v = 0.0;
  double t = 0.0;
  void take(double e, double atV, double atT) {
    if (e > error) *this = {e, atV, atT};
  }
};

TEST(PlantSurfaceOracle, OffGridErrorStaysInsideTheStatedBound) {
  for (const int nodeNm : {180, 70, 35}) {
    PlantConfig config;
    config.nodeNm = nodeNm;
    const auto plant = Plant::forConfig(config);
    const tech::TechNode& node = plant->node();
    const oracle::ReferenceSurfaces grid = oracle::referenceSurfaces(node);
    const double vthNominal = device::solveVthForIon(node, node.ionTarget);
    const double wireCap = node.localWireCapPerM * node.avgLocalWireLength;
    auto inverter = [&](double vFrac, double t) {
      const double v = vFrac * node.vdd;
      const double vth = vthNominal + node.dibl * (node.vdd - v);
      return device::InverterModel(node, vth, v, {}, t);
    };
    // The plant's normalization, recovered at a grid point, where the
    // surface holds the sample itself.
    const double v0 = grid.vdd.front();
    const double t0 = grid.temp.front();
    const double delayRef =
        inverter(v0, t0).fo4Delay(wireCap) / plant->delayScale(v0, t0);
    const double leakRef =
        inverter(v0, t0).leakagePower() / plant->leakageScale(v0, t0);

    Worst delay, leak;
    auto probe = [&](double v, double t) {
      const device::InverterModel inv = inverter(v, t);
      const double wantDelay = inv.fo4Delay(wireCap) / delayRef;
      const double wantLeak = inv.leakagePower() / leakRef;
      delay.take(std::abs(plant->delayScale(v, t) / wantDelay - 1.0), v, t);
      leak.take(std::abs(plant->leakageScale(v, t) / wantLeak - 1.0), v, t);
    };
    // 7 x 7 interior points of every cell.
    for (std::size_t iv = 0; iv + 1 < grid.vdd.size(); ++iv) {
      for (std::size_t it = 0; it + 1 < grid.temp.size(); ++it) {
        for (int a = 1; a <= 7; ++a) {
          for (int b = 1; b <= 7; ++b) {
            probe(grid.vdd[iv] + (grid.vdd[iv + 1] - grid.vdd[iv]) * a / 8.0,
                  grid.temp[it] +
                      (grid.temp[it + 1] - grid.temp[it]) * b / 8.0);
          }
        }
      }
    }
    // Seeded points anywhere inside the axes.
    util::Rng rng(static_cast<std::uint64_t>(nodeNm));
    for (int i = 0; i < 500; ++i) {
      probe(rng.uniform(grid.vdd.front(), grid.vdd.back()),
            rng.uniform(grid.temp.front(), grid.temp.back()));
    }
    const std::string where = "node " + std::to_string(nodeNm);
    auto describe = [](const Worst& w) {
      return std::to_string(w.error) + " at vdd " + std::to_string(w.v) +
             ", " + std::to_string(w.t) + " K";
    };
    RecordProperty("delay_error_" + std::to_string(nodeNm), describe(delay));
    RecordProperty("leakage_error_" + std::to_string(nodeNm), describe(leak));
    EXPECT_LE(delay.error, kDelayBound) << where << ": " << describe(delay);
    EXPECT_LE(leak.error, kLeakageBound) << where << ": " << describe(leak);
    // The surfaces are not exact off the grid: a bound of 0 would hold
    // only if the probes missed the cells.
    EXPECT_GT(delay.error, 0.0) << where;
    EXPECT_GT(leak.error, 0.0) << where;
  }
}

}  // namespace
}  // namespace nano::scenario
