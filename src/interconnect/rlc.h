// Inductance-aware wire analysis. The paper lists "full-chip inductance
// extraction" among the nanometer challenges and leans on inductive
// coupling in its signaling discussion (Section 2.2); this module provides
// the wire inductance estimates behind those numbers and classifies when a
// global line leaves the RC regime (where Elmore/repeater formulas hold)
// for the RLC/transmission-line regime.
#pragma once

#include "interconnect/repeater.h"
#include "interconnect/wire.h"

namespace nano::interconnect {

/// Closed-form 50 % delay of a distributed RC line driven by `rdrv` and
/// loaded by `cload` (Sakurai): 0.377*R*C*L^2-style plus boundary terms.
/// The tests check it against the D2M delay of a finely segmented RC tree.
double distributedLineDelay(const WireRc& rc, double length, double rdrv,
                            double cload);

/// Per-length inductive parameters of a wire in its return environment.
struct WireL {
  double selfInductancePerM = 0.0;    ///< H/m, partial self inductance
  double loopInductancePerM = 0.0;    ///< H/m, with the given return distance
  double mutualToNeighborPerM = 0.0;  ///< H/m, to an adjacent parallel wire
};

/// Estimate inductance for a wire of geometry `g` whose current returns at
/// distance `returnDistance` (e.g. the power-grid rail spacing). Uses the
/// standard partial-inductance expressions for rectangular conductors.
WireL computeWireL(const WireGeometry& g, double returnDistance);

/// RLC regime classification of a driven line (Ismail/Friedman-style).
struct RlcReport {
  double timeOfFlight = 0.0;      ///< s, L*C wave propagation over the length
  double rcDelay = 0.0;           ///< s, 50 % RC-only estimate
  double characteristicImpedance = 0.0;  ///< ohm, sqrt(L/C)
  double attenuation = 0.0;       ///< R_total / (2 * Z0): >> 1 means RC-like
  bool inductanceMatters = false; ///< attenuation < ~1 and driver fast enough
  double delayEstimate = 0.0;     ///< s, max(time of flight, RC estimate)
};

/// Analyze a line of `length` with per-length R/C from `rc`, inductance
/// from `l`, driver resistance `rdrv` and load `cload`.
RlcReport analyzeRlcLine(const WireRc& rc, const WireL& l, double length,
                         double rdrv, double cload);

/// The Section 2.2 question for one node: is a repeater segment of the
/// optimal length still RC-dominated (so the Bakoglu insertion model is
/// valid)? Returns the report for one optimal segment.
RlcReport repeaterSegmentRlc(const tech::TechNode& node);

}  // namespace nano::interconnect
