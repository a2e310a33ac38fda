// IR-drop scaling analysis (paper Section 4 / Figure 5): the closed-form
// BACPAC-style rail model, the required-linewidth solve, routing-resource
// accounting, and bump-current checks — for both the minimum manufacturable
// bump pitch and the ITRS-projected pad counts.
#pragma once

#include "powergrid/grid_model.h"
#include "tech/itrs.h"

namespace nano::powergrid {

/// Closed-form worst IR drop of a Vdd rail of width `railWidth` serving a
/// strip `railPitch` wide with bumps every `bumpPitch` along it, at
/// hot-spot power density `q * density`: lambda * Rsheet * p^2 / (8 * W).
double railMaxDrop(double railWidth, double railPitch, double bumpPitch,
                   double sheetResistance, double powerDensity,
                   double hotspotFactor, double supplyVoltage);

/// Analysis options. The hot spot runs at kHotspotFactor times the
/// average power density.
struct IrDropOptions {
  /// IR budget per polarity as a fraction of Vdd (paper: <10 % for the
  /// full Vdd-GND loop => 5 % per rail polarity).
  double budgetFraction = 0.05;
  /// Cross-check the closed form against the mesh solver, on the
  /// gridConfigForNode mesh (8 nodes per rail span, hot spot on).
  bool runMesh = false;
};

/// Result of a required-linewidth solve at one node / bump pitch.
struct IrDropReport {
  double padPitch = 0.0;         ///< m, full-array bump pitch
  double railPitch = 0.0;        ///< m, same-polarity rail/bump pitch (2x pad)
  double requiredWidth = 0.0;    ///< m
  double widthOverMin = 0.0;     ///< requiredWidth / min top-level width
  /// Fraction of top-level routing taken by Vdd+GND rails.
  double routingFraction = 0.0;
  double bumpCurrent = 0.0;      ///< A per Vdd bump at hot-spot density
  bool bumpCurrentOk = false;    ///< within the node's per-bump limit
  double meshDropFraction = -1.0;  ///< mesh cross-check at requiredWidth (<0:
                                   ///< not run)
  int vddBumpCount = 0;          ///< Vdd bumps implied by this pitch
};

/// Required linewidth at `padPitch` for a node.
IrDropReport requiredLinewidth(const tech::TechNode& node, double padPitch,
                               const IrDropOptions& options = {});

/// Figure 5 cases: the minimum manufacturable bump pitch, and the pitch
/// implied by the ITRS pad-count projection.
IrDropReport minPitchReport(const tech::TechNode& node,
                            const IrDropOptions& options = {});
IrDropReport itrsPitchReport(const tech::TechNode& node,
                             const IrDropOptions& options = {});

/// Landing-pad overhead the paper adds on top of rail routing (constant
/// 16 % of top-level resources).
inline constexpr double kLandingPadFraction = 0.16;

}  // namespace nano::powergrid
