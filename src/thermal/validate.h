// Structured input validation for the thermal closed-loop simulators,
// following the SolverStatus convention: a status enum with a stable short
// name and a cheap-to-copy check record. simulateDtm and simulateDvfs run
// these checks first and throw std::invalid_argument carrying describe().
// Bad policies (trip below ambient, empty level tables, non-positive time
// steps) are rejected up front instead of silently producing garbage
// traces.
#pragma once

#include <string>

#include "thermal/dtm.h"
#include "thermal/dvfs.h"

namespace nano::thermal {

/// Why a thermal simulation input was rejected (or Ok).
enum class ThermalInputStatus {
  Ok,           ///< inputs admissible
  BadTimeStep,  ///< dt <= 0 or not finite
  EmptyTrace,   ///< power/demand trace has no duration
  BadPolicy,    ///< policy parameters out of range (see message)
  BadPackage,   ///< non-physical package or ambient inputs
};

/// Short stable name for a status ("ok", "bad-time-step", ...).
const char* thermalInputStatusName(ThermalInputStatus status);

/// Structured outcome of an input check. `message` names the offending
/// field and value when the check fails; empty on Ok.
struct ThermalInputCheck {
  ThermalInputStatus status = ThermalInputStatus::Ok;
  std::string message;
  [[nodiscard]] bool ok() const { return status == ThermalInputStatus::Ok; }
  /// "ok" or "<status-name>: <message>".
  [[nodiscard]] std::string describe() const;
};

/// Validate the full simulateDtm input tuple. Rejects non-positive or
/// non-finite dt, empty traces, non-positive worst-case power or ambient,
/// and policies whose trip temperature sits at or below ambient (an
/// enabled sensor would latch throttled forever), negative hysteresis or
/// sensor delay, or a throttle factor outside (0, 1].
ThermalInputCheck validateDtmInputs(const ThermalPackage& package,
                                    const PowerTrace& trace,
                                    double worstCasePower, double tAmbient,
                                    const DtmPolicy& policy, double dt,
                                    int traceStride);

/// Validate the simulateDvfs input tuple. Rejects empty level tables,
/// levels with freq/vdd fractions outside (0, 1.5], idle fractions outside
/// [0, 1], empty demand traces, and non-physical power/ambient values.
ThermalInputCheck validateDvfsInputs(const ThermalPackage& package,
                                     const PowerTrace& demand,
                                     double worstCasePower, double tAmbient,
                                     const DvfsPolicy& policy);

}  // namespace nano::thermal
