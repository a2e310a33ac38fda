// The scenario engine's reference implementations, kept as test oracles:
//  - the single-variant step loop that runScenarios() replaced, with one
//    full (Vdd, temperature) surface lookup per use and the baseline
//    advanced per variant;
//  - the plant's response surfaces as one-stage bilinear tables, built by
//    the same samples and normalization the Plant constructor uses.
// The lockstep engine and the two-stage cell lookups must match these
// bit for bit.
#pragma once

#include <vector>

#include "scenario/plant.h"
#include "scenario/policy.h"
#include "scenario/scenario.h"
#include "tech/itrs.h"

namespace nano::scenario::oracle {

/// runScenario() as one loop per variant: same arithmetic, same checks,
/// same trace and counters, but no obs metrics.
ScenarioResult runScenarioReference(const Plant& plant, Policy& policy,
                                    const ScenarioConfig& config);

/// One-stage bilinear tables over (Vdd fraction, temperature) for a node,
/// normalized as the plant normalizes its surfaces.
struct ReferenceSurfaces {
  std::vector<double> vdd;    ///< ascending sample axis
  std::vector<double> temp;   ///< ascending sample axis
  std::vector<double> delay;  ///< row-major [vdd][temp]
  std::vector<double> leak;   ///< row-major [vdd][temp]
  [[nodiscard]] double delayAt(double v, double t) const;
  [[nodiscard]] double leakAt(double v, double t) const;
};
ReferenceSurfaces referenceSurfaces(const tech::TechNode& node);

}  // namespace nano::scenario::oracle
