// Synthetic workload power traces: stand-ins for the "power-hungry
// applications" vs "synthetic input code sequences" (power virus) the
// paper distinguishes when defining effective vs theoretical worst-case
// power.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace nano::thermal {

/// Piecewise-constant power trace, as fractions of the theoretical
/// worst-case power.
struct PowerTrace {
  struct Phase {
    double duration = 0.0;       ///< s
    double powerFraction = 0.0;  ///< of theoretical worst case
  };
  std::vector<Phase> phases;

  /// Phase lookup for non-decreasing times: each call only walks forward
  /// from the previous call's phase, so stepping through the whole trace
  /// costs O(steps + phases) rather than O(steps x phases). Phase ends are
  /// the left-fold running sums of the durations; t selects the first
  /// phase whose end lies beyond it (clamping to the last phase). The trace
  /// must outlive the cursor.
  class Cursor {
   public:
    /// Throws std::logic_error on an empty trace.
    explicit Cursor(const PowerTrace& trace);
    /// Power fraction at t; t must not decrease between calls.
    [[nodiscard]] double at(double t);

   private:
    const std::vector<Phase>* phases_;
    std::size_t index_ = 0;
    double end_ = 0.0;  ///< end time of phases_[index_]
  };

  [[nodiscard]] double totalDuration() const;
};

/// A demanding but realistic application: phases drawn in [0.35, 0.80] of
/// theoretical worst case with occasional bursts to `burstFraction`
/// (default ~0.75, the paper's effective worst case).
PowerTrace typicalApplication(util::Rng& rng, double duration,
                              double burstFraction = 0.75,
                              double phaseMean = 2e-3);

/// The power virus: sustained theoretical worst case.
PowerTrace powerVirus(double duration);

/// Idle-burst pattern with standby intervals at `idleFraction` power,
/// used by the wake-up transient study (Section 4).
PowerTrace idleBurst(double duration, double period, double dutyActive,
                     double idleFraction = 0.05);

}  // namespace nano::thermal
