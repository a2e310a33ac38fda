// Time-stepped closed-loop DTM/DVS scenario engine. Couples a Plant (the
// thermal + timing + device + power-grid substrate), a Policy (DTM
// throttle, DVFS governor, assertion-guarded exploration), and an
// activity trace in one feedback loop:
//
//   workload demand -> policy actuation (f, Vdd, clock gate)
//     -> power (switching at f*V^2, leakage at leakageScale(V, T))
//     -> temperature (theta_ja RC step), IR drop (+ wake-up rush on
//        ungate / Vdd up-steps), timing slack (clock vs delayScale(V, T))
//     -> next step's sensor observation.
//
// Every step evaluates three assertions — temperature, IR-drop margin,
// timing slack — and the scenario fails loudly (violation records, ok =
// false, optionally fail-fast) when a policy breaks one. One loop steps
// any number of policy variants of a run in lockstep: it reads the demand
// once per step, steps each variant, and advances the nominal baseline,
// which no variant changes, once for all. The loop is serial and
// allocation-light; results are byte-identical at any exec lane count and
// for any grouping of variants, which the committed golden traces pin
// down.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "scenario/plant.h"
#include "scenario/policy.h"
#include "thermal/workload.h"

namespace nano::scenario {

/// Hard limits the per-step checks assert against.
struct CheckLimits {
  double maxTemperatureK = 0.0;   ///< 0 picks the node's tjMax
  double irBudgetFraction = 0.05; ///< supply-noise budget, of operating Vdd
  double minSlackS = 0.0;         ///< worst endpoint slack floor
};

enum class CheckKind { Temperature, IrDrop, TimingSlack };
const char* checkKindName(CheckKind kind);

/// One assertion failure: which check, when, and by how much.
struct Violation {
  CheckKind kind = CheckKind::Temperature;
  long step = 0;
  double timeS = 0.0;
  double value = 0.0;
  double limit = 0.0;
};

/// One decimated trace sample.
struct StepRecord {
  double timeS = 0.0;
  double demand = 0.0;
  double freqFraction = 1.0;
  double vddFraction = 1.0;
  bool gated = false;
  double powerW = 0.0;
  double temperatureK = 0.0;
  double slackS = 0.0;
  double irDropFraction = 0.0;
  double rushFraction = 0.0;
  long violations = 0;  ///< cumulative count up to this sample
};

struct ScenarioConfig {
  thermal::PowerTrace workload;  ///< demand fractions of peak throughput
  double tAmbientK = 0.0;        ///< 0 picks the node's ambient
  double dt = 50e-6;             ///< s, integration step
  long steps = 0;                ///< 0 derives from workload duration / dt
  CheckLimits limits;
  int traceStride = 100;         ///< decimation of the recorded trace
  bool failFast = false;         ///< stop at the first violation
  double wakeRampS = 5e-9;       ///< current ramp of ungate / Vdd up-steps
  /// Residual switching (clock tree stubs, retention) while gated, as a
  /// fraction of nominal dynamic power (times V^2).
  double gatedDynamicFraction = 0.02;
};

struct ScenarioResult {
  bool ok = true;                 ///< no check ever fired
  long steps = 0;
  long checksEvaluated = 0;       ///< 3 per integrated step
  long violationCount = 0;
  std::vector<Violation> violations;  ///< first kMaxViolationsRecorded
  double energyJ = 0.0;
  double baselineEnergyJ = 0.0;   ///< same workload at nominal (f=V=1)
  double throughputFraction = 0.0;///< delivered / demanded work
  double maxTemperatureK = 0.0;
  double avgTemperatureK = 0.0;
  double peakPowerW = 0.0;
  double peakIrDropFraction = 0.0;///< incl. rush
  double peakRushFraction = 0.0;
  double worstSlackS = 0.0;
  long gateEvents = 0;            ///< clock-gate transitions (both edges)
  long vddSteps = 0;              ///< actuation changes of the Vdd fraction
  std::vector<StepRecord> trace;
  [[nodiscard]] double energySavings() const {
    return baselineEnergyJ > 0.0 ? 1.0 - energyJ / baselineEnergyJ : 0.0;
  }
};

/// Cap on stored Violation records; the count keeps running past it.
inline constexpr int kMaxViolationsRecorded = 64;

/// Run the loop for every policy in `policies` over one plant and config;
/// result i belongs to policies[i] and is the same as a run of that
/// policy alone. Each policy is reset first. With failFast, a variant
/// stops at its own first violation while the others go on. Throws
/// std::invalid_argument on a non-positive dt/steps, an empty workload, a
/// traceStride < 1, or a null or repeated policy (two variants must not
/// share policy state). Records one "scenario/run" timer sample per call.
std::vector<ScenarioResult> runScenarios(const Plant& plant,
                                         std::span<Policy* const> policies,
                                         const ScenarioConfig& config);

/// runScenarios() of one policy.
ScenarioResult runScenario(const Plant& plant, Policy& policy,
                           const ScenarioConfig& config);

/// The decimated trace as CSV (header + one row per sample), rendered
/// with util::formatCsvDouble so committed goldens are byte-stable.
std::string scenarioCsv(const ScenarioResult& result);

// ------------------------------------------------- canonical scenarios

/// Declarative description of a scenario run; the svc request kinds map
/// onto this 1:1. `knobA`/`knobB` tune the policy (0 = policy default):
///   dtm:     A = throttle factor,        B = trip margin below tjMax, K
///   dvfs:    A = level-voltage scale,    B = gate-below-demand threshold
///   explore: A = Vdd exploration floor,  B = slack guard fraction
struct ScenarioSpec {
  int nodeNm = 35;
  std::string scenario = "dtm";  ///< "dtm" | "dvfs" | "wakeup"
  std::string policy;            ///< "" = scenario default; else
                                 ///< "dtm" | "dvfs" | "explore"
  long steps = 2000;
  double dtUs = 50.0;
  int gates = 2000;
  int seed = 1;
  int traceStride = 100;
  double knobA = 0.0;
  double knobB = 0.0;
};

/// A spec resolved against the plant cache: ready to run.
struct ScenarioSetup {
  std::shared_ptr<const Plant> plant;
  std::unique_ptr<Policy> policy;
  ScenarioConfig config;
};

/// Default policy name of a canonical scenario ("dtm" -> "dtm", "dvfs" ->
/// "dvfs", "wakeup" -> "dvfs" with gating). Throws on unknown names.
const char* defaultPolicyFor(const std::string& scenario);

/// Policy-knob sweep ranges for the scenario sweep request kind.
struct KnobRange {
  double aLo = 0.0, aHi = 0.0;
  double bLo = 0.0, bHi = 0.0;
};
KnobRange knobRangeFor(const std::string& policy);

/// Build the plant (cached), the policy, and the workload/limits for a
/// spec. Throws std::invalid_argument on unknown scenario/policy names or
/// out-of-range knobs. Counts obs "scenario/setups".
ScenarioSetup makeScenario(const ScenarioSpec& spec);

/// The committed-golden configuration of a canonical scenario ("dtm",
/// "dvfs", "wakeup"): 4000 steps of 50 us on the 35 nm node, default
/// policy and knobs, stride-50 trace. golden/scenario_<name>.csv is
/// scenarioCsv() of exactly this spec.
ScenarioSpec canonicalSpec(const std::string& name);

}  // namespace nano::scenario
