// The "physical plant" of a closed-loop DTM/DVS scenario (paper Section
// 2.1): everything about the die + package that a management policy acts
// on, precomputed once and immutable afterwards so policy sweeps share it
// across threads.
//
// A Plant couples four existing layers into one queryable substrate:
//  - thermal:   a ThermalPackage (theta_ja sized for the effective or the
//               theoretical worst case) for dT/dt integration,
//  - sta:       a generated pipelined netlist timed by the flat SoA engine;
//               its critical-path delay defines the nominal clock period
//               and the endpoint slack profile,
//  - device:    delay/leakage response surfaces sampled from InverterModel
//               over (Vdd, temperature) — the Vdd-delay and the
//               leakage-temperature feedback paths,
//  - powergrid: a base IR-drop mesh solve at the node's minimum bump pitch
//               plus the wake-up bump inductance, scaled per step into an
//               IR-drop margin and an L*dI/dt rush-noise term.
//
// Plants cache process-wide by configuration (the GridModel::forConfig
// pattern): a 64-variant policy sweep builds the netlist, runs STA, and
// solves the grid exactly once.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "tech/itrs.h"
#include "thermal/package.h"

namespace nano::scenario {

/// What the plant is built from. Equality keys the process-wide cache.
struct PlantConfig {
  int nodeNm = 35;      ///< roadmap node
  int gates = 2000;     ///< generated design slice size
  int seed = 1;         ///< netlist generator seed
  int blocks = 8;       ///< pipeline blocks of the slice
  /// Junction-to-ambient resistance, K/W; 0 picks the node's theoretical-
  /// worst-case requirement (tjMax - tAmbient) / maxPower.
  double thetaJa = 0.0;
  double heatCapacity = 0.02;  ///< J/K lumped die+spreader
  /// Fraction of the node's max power that is switching (vs leakage) at
  /// nominal Vdd and the junction limit.
  double dynamicFraction = 0.7;
  /// Rail width over the minimum top-metal width for the IR solve. The
  /// default sizes the mesh so full power at nominal supply stays inside
  /// the 5 % noise budget with margin for wake-up rush on top.
  double gridWidthMultiple = 6.0;
  int gridSubdivisions = 8;        ///< mesh resolution of the IR solve

  friend bool operator==(const PlantConfig&, const PlantConfig&) = default;
};

/// Immutable precomputed substrate. Thread-safe to share by const ref.
class Plant {
 public:
  explicit Plant(const PlantConfig& config);

  /// Shared plant for `config` from the process-wide cache. Counts obs
  /// "scenario/plant_builds" on a build and "scenario/plant_reuses" on a
  /// hit; builds run under the "scenario/plant_build" timer.
  static std::shared_ptr<const Plant> forConfig(const PlantConfig& config);
  /// Drop every cached plant (tests that assert build counts).
  static void clearCache();

  [[nodiscard]] const PlantConfig& config() const { return config_; }
  [[nodiscard]] const tech::TechNode& node() const { return *node_; }
  [[nodiscard]] const thermal::ThermalPackage& package() const {
    return package_;
  }

  // Timing ---------------------------------------------------------------

  /// Nominal clock period, s: the generated netlist's critical-path delay
  /// at (Vdd, Tref) — zero worst slack at the nominal operating point.
  [[nodiscard]] double clockPeriod() const { return clockPeriod_; }
  [[nodiscard]] int gateCount() const { return gateCount_; }
  [[nodiscard]] int endpointCount() const { return endpointCount_; }
  /// The paper's slack-profile statistic at nominal: fraction of endpoints
  /// using less than half the cycle.
  [[nodiscard]] double fractionFasterThanHalf() const {
    return fractionFasterThanHalf_;
  }

  /// Path-delay multiplier at a supply fraction and junction temperature,
  /// from the device model (DIBL raises Vth as Vdd falls; mobility and
  /// Vth shift with T). Normalized to 1.0 at (1.0, Tref), Tref = tjMax:
  /// nominal clocking is timing-safe up to the junction limit exactly.
  [[nodiscard]] double delayScale(double vddFraction,
                                  double temperatureK) const {
    return delayScaleAt(vddCell(vddFraction), temperatureCell(temperatureK));
  }

  // Power ----------------------------------------------------------------

  /// Switching power at full utilization, nominal (f, Vdd), W.
  [[nodiscard]] double dynamicPowerNominal() const { return pdynNominal_; }
  /// Leakage power at nominal Vdd and Tref, W.
  [[nodiscard]] double leakagePowerNominal() const { return pleakNominal_; }
  /// Leakage multiplier at (Vdd fraction, temperature) — the exponential
  /// leakage-temperature feedback path. Normalized to 1.0 at (1.0, Tref).
  [[nodiscard]] double leakageScale(double vddFraction,
                                    double temperatureK) const {
    return leakageScaleAt(vddCell(vddFraction),
                          temperatureCell(temperatureK));
  }

  // Response surfaces in two stages --------------------------------------
  //
  // Both surfaces are bilinear tables over one shared (Vdd fraction,
  // temperature) grid. A lookup first places each coordinate in a cell of
  // its axis, then interpolates the cell; delayScale and leakageScale do
  // both. A caller whose Vdd or temperature did not change keeps its cell
  // and skips the search.
  //
  // Error bound. Against the device model they sample (InverterModel at
  // the same Vdd fraction and temperature, normalized the same way), off
  // the grid points at the 180, 70 and 35 nm nodes, delay is within 0.5 %
  // and leakage within 5 % (measured worst: 0.29-0.42 % and 1.3-3.8 %),
  // both worst in the low-Vdd, cold corner cell. The plant oracle test in
  // tests/scenario holds these bounds.

  /// Where a coordinate falls on one axis: the lower sample's index and
  /// the fraction toward the next, clamped to [0, 1] (no extrapolation).
  struct SurfaceCell {
    std::size_t index = 0;
    double frac = 0.0;
  };
  [[nodiscard]] SurfaceCell vddCell(double vddFraction) const;
  [[nodiscard]] SurfaceCell temperatureCell(double temperatureK) const;
  [[nodiscard]] double delayScaleAt(SurfaceCell vdd,
                                    SurfaceCell temperature) const;
  [[nodiscard]] double leakageScaleAt(SurfaceCell vdd,
                                      SurfaceCell temperature) const;

  // Power grid -----------------------------------------------------------

  /// Worst IR drop as a fraction of the operating supply when the die
  /// draws `powerW` at `vddFraction` of nominal: the base mesh solution
  /// scales linearly with load current, which is P / (vFrac * VddNom),
  /// and the budget is a fraction of the operating supply vFrac * VddNom.
  [[nodiscard]] double irDropFraction(double powerW, double vddFraction) const;
  /// Base mesh drop fraction at max power, nominal supply.
  [[nodiscard]] double baseDropFraction() const { return baseDropFraction_; }

  /// Supply noise of a current step `deltaCurrentA` ramped over `rampS`
  /// through the bump array inductance, as a fraction of the operating
  /// supply (the Section 4 wake-up rush term).
  [[nodiscard]] double rushNoiseFraction(double deltaCurrentA, double rampS,
                                         double vddFraction) const;
  /// Effective bump-array inductance at the minimum pitch, H.
  [[nodiscard]] double wakeInductance() const { return wakeInductance_; }

  /// Supply current drawn at `powerW`, `vddFraction` of nominal, A.
  [[nodiscard]] double supplyCurrent(double powerW, double vddFraction) const;

 private:
  PlantConfig config_;
  const tech::TechNode* node_;
  thermal::ThermalPackage package_;
  double clockPeriod_ = 0.0;
  int gateCount_ = 0;
  int endpointCount_ = 0;
  double fractionFasterThanHalf_ = 0.0;
  double vthNominal_ = 0.0;
  double pdynNominal_ = 0.0;
  double pleakNominal_ = 0.0;
  std::vector<double> vddAxis_;   ///< ascending Vdd-fraction samples
  std::vector<double> tempAxis_;  ///< ascending temperature samples, K
  std::vector<double> delayTable_;  ///< row-major [vdd][temp]
  std::vector<double> leakTable_;   ///< row-major [vdd][temp]
  double baseDropFraction_ = 0.0;
  double wakeInductance_ = 0.0;
};

}  // namespace nano::scenario
