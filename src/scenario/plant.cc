#include "scenario/plant.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "circuit/generator.h"
#include "circuit/library.h"
#include "circuit/netlist_soa.h"
#include "device/gate_model.h"
#include "device/mosfet.h"
#include "obs/obs.h"
#include "powergrid/grid_model.h"
#include "powergrid/transient.h"
#include "sta/sta.h"
#include "util/numeric.h"
#include "util/rng.h"

namespace nano::scenario {

namespace {

// Response-surface sampling grid. The Vdd axis spans the deepest DVS step
// any policy is allowed to take down to half the nominal supply; the
// temperature axis brackets ambient through well past the junction limit
// so the integrator never extrapolates.
constexpr int kVddSamples = 13;
constexpr int kTempSamples = 9;
constexpr double kVddFracLo = 0.50;
constexpr double kVddFracHi = 1.05;

}  // namespace

namespace {

Plant::SurfaceCell cellOf(const std::vector<double>& axis, double x) {
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  std::size_t hi = static_cast<std::size_t>(it - axis.begin());
  hi = std::clamp<std::size_t>(hi, 1, axis.size() - 1);
  const double lo = axis[hi - 1];
  const double span = axis[hi] - lo;
  return {hi - 1, std::clamp((x - lo) / span, 0.0, 1.0)};
}

/// Bilinear interpolation of a row-major [vdd][temp] table with `nt`
/// temperature samples per row.
double interpolate(const std::vector<double>& table, std::size_t nt,
                   Plant::SurfaceCell vdd, Plant::SurfaceCell temperature) {
  const std::size_t iv = vdd.index;
  const std::size_t it = temperature.index;
  const double v00 = table[iv * nt + it];
  const double v01 = table[iv * nt + it + 1];
  const double v10 = table[(iv + 1) * nt + it];
  const double v11 = table[(iv + 1) * nt + it + 1];
  const double lo = v00 + (v01 - v00) * temperature.frac;
  const double hi = v10 + (v11 - v10) * temperature.frac;
  return lo + (hi - lo) * vdd.frac;
}

}  // namespace

Plant::SurfaceCell Plant::vddCell(double vddFraction) const {
  return cellOf(vddAxis_, vddFraction);
}

Plant::SurfaceCell Plant::temperatureCell(double temperatureK) const {
  return cellOf(tempAxis_, temperatureK);
}

double Plant::delayScaleAt(SurfaceCell vdd, SurfaceCell temperature) const {
  return interpolate(delayTable_, tempAxis_.size(), vdd, temperature);
}

double Plant::leakageScaleAt(SurfaceCell vdd, SurfaceCell temperature) const {
  return interpolate(leakTable_, tempAxis_.size(), vdd, temperature);
}

Plant::Plant(const PlantConfig& config)
    : config_(config),
      node_(&tech::nodeByFeature(config.nodeNm)),
      package_(config.thetaJa > 0.0 ? config.thetaJa
                                    : node_->requiredThetaJa(),
               config.heatCapacity) {
  NANO_OBS_TIMER("scenario/plant_build");

  // Timing substrate: the same generated design slice as the `sta`
  // request kind, timed once at nominal to fix the clock period and the
  // slack profile.
  {
    const circuit::Library& library = circuit::roadmapLibrary(config.nodeNm);
    util::Rng rng(static_cast<std::uint64_t>(config.seed));
    const circuit::GeneratorConfig cfg = circuit::scaledConfig(config.gates);
    const circuit::Netlist netlist =
        circuit::pipelinedLogic(library, cfg, rng, config.blocks);
    const circuit::NetlistSoA soa(netlist, {.keepCells = false});
    const sta::TimingResult timing = sta::analyze(soa);
    clockPeriod_ = timing.criticalPathDelay;
    gateCount_ = netlist.gateCount();
    endpointCount_ = static_cast<int>(netlist.outputs().size());
    fractionFasterThanHalf_ =
        sta::fractionOfPathsFasterThan(timing, netlist, 0.5);
  }

  // Device response surfaces. The physical device is fixed; operating it
  // at a reduced supply raises the effective Vth through DIBL, so each
  // sample re-specifies vth at its own operating point.
  const double tRef = node_->tjMax;
  vthNominal_ = device::solveVthForIon(*node_, node_->ionTarget);
  const double dibl = node_->dibl;
  const double wireCap = node_->localWireCapPerM * node_->avgLocalWireLength;

  vddAxis_ = util::linspace(kVddFracLo, kVddFracHi, kVddSamples);
  tempAxis_ = util::linspace(node_->tAmbient - 15.0, node_->tjMax + 40.0,
                             kTempSamples);
  delayTable_.reserve(kVddSamples * kTempSamples);
  leakTable_.reserve(kVddSamples * kTempSamples);
  for (double vFrac : vddAxis_) {
    const double v = vFrac * node_->vdd;
    const double vth = vthNominal_ + dibl * (node_->vdd - v);
    for (double t : tempAxis_) {
      const device::InverterModel inv(*node_, vth, v, {}, t);
      delayTable_.push_back(inv.fo4Delay(wireCap));
      leakTable_.push_back(inv.leakagePower());
    }
  }
  // Normalize delay against the worst case over the die's operating range
  // at nominal Vdd. With the roadmap's low supplies the device shows
  // temperature inversion (Vth falls faster than mobility with T), so the
  // slowest corner is the cold die at ambient, not the junction limit —
  // sampling the range keeps nominal clocking timing-safe either way.
  const SurfaceCell nominal = vddCell(1.0);
  double delayRef = 0.0;
  for (double t : tempAxis_) {
    if (t < node_->tAmbient - 1e-9 || t > node_->tjMax + 1e-9) continue;
    delayRef = std::max(delayRef, delayScaleAt(nominal, temperatureCell(t)));
  }
  delayRef = std::max(
      {delayRef, delayScaleAt(nominal, temperatureCell(node_->tAmbient)),
       delayScaleAt(nominal, temperatureCell(node_->tjMax))});
  const double leakRef = leakageScaleAt(nominal, temperatureCell(tRef));
  for (double& d : delayTable_) d /= delayRef;
  for (double& l : leakTable_) l /= leakRef;

  pdynNominal_ = config.dynamicFraction * node_->maxPower;
  pleakNominal_ = (1.0 - config.dynamicFraction) * node_->maxPower;

  // Power-grid substrate: one mesh solve at the node's minimum bump pitch
  // fixes the drop-per-watt; the wake-up inductance comes from the same
  // bump array. Both scale linearly with load current per step.
  {
    powergrid::GridConfig grid = powergrid::gridConfigForNode(
        *node_, config.gridWidthMultiple, node_->minBumpPitch, true);
    grid.subdivisions = config.gridSubdivisions;
    const powergrid::GridSolution sol = powergrid::solveGrid(grid);
    baseDropFraction_ = sol.maxDropFraction;
    const powergrid::TransientReport wake = powergrid::wakeupTransient(
        *node_, powergrid::minPitchVddBumps(*node_));
    wakeInductance_ = wake.effectiveInductance;
  }
}

double Plant::irDropFraction(double powerW, double vddFraction) const {
  // dropV scales with load current I = P / V; the fraction divides by the
  // operating supply once more: base * (P / Pmax) / vFrac^2.
  if (vddFraction <= 0.0) return 0.0;
  return baseDropFraction_ * (powerW / node_->maxPower) /
         (vddFraction * vddFraction);
}

double Plant::rushNoiseFraction(double deltaCurrentA, double rampS,
                                double vddFraction) const {
  if (deltaCurrentA <= 0.0 || rampS <= 0.0 || vddFraction <= 0.0) return 0.0;
  return wakeInductance_ * (deltaCurrentA / rampS) /
         (vddFraction * node_->vdd);
}

double Plant::supplyCurrent(double powerW, double vddFraction) const {
  if (vddFraction <= 0.0) return 0.0;
  return powerW / (vddFraction * node_->vdd);
}

// ------------------------------------------------------ process-wide cache

namespace {

struct PlantCache {
  std::mutex mutex;
  std::vector<std::pair<PlantConfig, std::shared_ptr<const Plant>>> entries;
};

PlantCache& plantCache() {
  static PlantCache* cache = new PlantCache();
  return *cache;
}

}  // namespace

std::shared_ptr<const Plant> Plant::forConfig(const PlantConfig& config) {
  PlantCache& cache = plantCache();
  {
    std::lock_guard<std::mutex> lock(cache.mutex);
    for (const auto& [key, plant] : cache.entries) {
      if (key == config) {
        NANO_OBS_COUNT("scenario/plant_reuses", 1);
        return plant;
      }
    }
  }
  // Build outside the lock (a build takes milliseconds; concurrent misses
  // may race to build, last insert wins — both plants are identical).
  NANO_OBS_COUNT("scenario/plant_builds", 1);
  auto plant = std::make_shared<const Plant>(config);
  std::lock_guard<std::mutex> lock(cache.mutex);
  for (const auto& [key, existing] : cache.entries) {
    if (key == config) return existing;
  }
  cache.entries.emplace_back(config, plant);
  return plant;
}

void Plant::clearCache() {
  PlantCache& cache = plantCache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  cache.entries.clear();
}

}  // namespace nano::scenario
