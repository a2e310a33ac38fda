// Pluggable management policies for the closed-loop scenario engine: what
// the paper's Section 2.1 calls dynamic thermal management and dynamic
// voltage scaling, plus the assertion-guarded exploration loop of Yu et
// al. A policy sees the plant's sensor state each step (temperature,
// timing slack, IR-drop margin — one step delayed, like a real sensor)
// and emits an actuation: a frequency fraction, a Vdd fraction, and a
// clock-gate request.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "thermal/dtm.h"
#include "thermal/dvfs.h"

namespace nano::scenario {

/// Sensor state a policy observes at the top of a step. Physical values
/// (temperature, slack, IR drop) are from the previous step's integration
/// — a policy never sees the consequences of the actuation it is about to
/// emit, which is what closes the loop.
struct PolicyObservation {
  double timeS = 0.0;
  double demandFraction = 0.0;   ///< workload demand, of peak throughput
  double temperatureK = 0.0;
  double slackS = 0.0;           ///< worst endpoint slack at current (f, V, T)
  double irDropFraction = 0.0;   ///< of the operating supply, incl. rush
  double clockPeriodS = 0.0;     ///< nominal period (for normalizing slack)
  double vddFraction = 1.0;      ///< currently applied actuation
  double freqFraction = 1.0;
  bool gated = false;
};

/// What a policy asks the plant to do for the coming step.
struct Actuation {
  double freqFraction = 1.0;
  double vddFraction = 1.0;
  bool clockGate = false;
};

/// Interface of a management policy. Policies are deterministic state
/// machines: same observation sequence, same actuation sequence.
class Policy {
 public:
  virtual ~Policy() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Forget all internal state (sensor latches, hold counters).
  virtual void reset() = 0;
  virtual Actuation decide(const PolicyObservation& obs) = 0;
};

/// Reactive DTM throttle: the Pentium 4-style trip sensor
/// (thermal::DtmSensor) read at the observation time. While throttled the
/// clock runs at `throttleFactor`, and Vdd tracks it for the ClockAndVdd
/// kind.
class ReactiveDtmPolicy : public Policy {
 public:
  explicit ReactiveDtmPolicy(const thermal::DtmPolicy& config)
      : sensor_(config) {}

  [[nodiscard]] const char* name() const override { return "dtm"; }
  void reset() override { sensor_.reset(); }
  Actuation decide(const PolicyObservation& obs) override;
  [[nodiscard]] const thermal::DtmPolicy& config() const {
    return sensor_.policy();
  }

 private:
  thermal::DtmSensor sensor_;
};

/// Table-driven DVFS governor: thermal::pickDvfsLevel over a (f, V) table
/// at the observed demand, and clock-gates below a demand threshold (0
/// disables gating). The actuation depends only on the clamped demand,
/// which changes only at workload phase boundaries, so the last decision
/// is kept and returned while the demand compares equal.
class TableDvfsPolicy : public Policy {
 public:
  struct Config {
    std::vector<thermal::DvfsLevel> levels;
    double gateBelowDemand = 0.0;
  };
  explicit TableDvfsPolicy(const Config& config);

  [[nodiscard]] const char* name() const override { return "dvfs"; }
  void reset() override { hasLast_ = false; }
  Actuation decide(const PolicyObservation& obs) override;
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
  bool hasLast_ = false;
  double lastDemand_ = 0.0;
  Actuation last_;
};

/// Assertion-guarded DVS exploration (Yu et al.): no level table. The
/// policy steps Vdd down (frequency tracking linearly) whenever the
/// observed slack, temperature, and IR margins have all cleared their
/// guard bands for `holdSteps` consecutive steps, and steps back up
/// immediately when any margin shrinks below its guard. The engine's
/// per-step checks are the assertions the guards keep it away from.
class ExploreDvsPolicy : public Policy {
 public:
  struct Config {
    double vddMin = 0.7;              ///< exploration floor, fraction
    double vddStep = 0.025;           ///< per-move step, fraction
    double slackGuardFraction = 0.08; ///< of the clock period
    double tempGuardK = 5.0;          ///< below the temperature limit
    double irGuardFraction = 0.8;     ///< of the IR budget
    int holdSteps = 16;               ///< stable steps before stepping down
    double temperatureLimitK = 0.0;   ///< from the scenario's check limits
    double irBudgetFraction = 0.05;
  };
  explicit ExploreDvsPolicy(const Config& config) : config_(config) {}

  [[nodiscard]] const char* name() const override { return "explore"; }
  void reset() override;
  Actuation decide(const PolicyObservation& obs) override;
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
  double vdd_ = 1.0;
  int stableSteps_ = 0;
};

}  // namespace nano::scenario
