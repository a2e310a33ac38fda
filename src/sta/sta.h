// Static timing analysis: topological arrival and required times, slacks,
// the critical path, and the endpoint slack distribution the paper's
// multi-Vdd argument rests on ("over half of all timing paths commonly use
// less than half the clock cycle").
//
// The engine sweeps the flat circuit::NetlistSoA arrays level by level —
// every node of a level depends only on strictly earlier (forward) or
// strictly later (backward) levels, so each level runs data-parallel
// through exec::parallelForBlocked with bit-identical results at any lane
// count. The object-netlist overloads are thin wrappers that mirror into
// SoA form first; their results are bit-identical to the historical
// pointer-walking implementation.
//
// The per-node steps below (forward, backward, slack, endpoint scans) are
// the only copy of the timing formulas: Sta's level sweeps and
// IncrementalSta's cone worklists (sta/incremental.h) both call them, so
// the two engines agree to the last bit by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "circuit/netlist.h"
#include "circuit/netlist_soa.h"
#include "util/arena.h"
#include "util/stats.h"

namespace nano::sta {

/// Full timing picture of a netlist at a clock period.
struct TimingResult {
  double clockPeriod = 0.0;           ///< s
  double criticalPathDelay = 0.0;     ///< s
  std::vector<double> arrival;        ///< per node, s
  std::vector<double> required;       ///< per node, s
  std::vector<double> slack;          ///< per node, s
  std::vector<int> criticalPath;      ///< node ids, input -> endpoint
  double worstSlack = 0.0;            ///< min over endpoints, s

  [[nodiscard]] bool meetsTiming(double tolerance = 1e-15) const {
    return worstSlack >= -tolerance;
  }
};

/// Required time of a node that no endpoint constrains.
inline constexpr double kUnconstrained =
    std::numeric_limits<double>::infinity();

/// A node's arrival and the fanin that set it (-1 at a primary input).
struct ArrivalStep {
  double arrival = 0.0;
  std::int32_t worstFanin = -1;
};

/// Forward step: the last maximum (>=) of the fanin arrivals, clamped at
/// 0, plus the gate's delay. Primary inputs arrive at 0.
inline ArrivalStep forwardStep(const circuit::NetlistSoA& soa,
                               const double* arrival, std::uint32_t id) {
  ArrivalStep step;
  if (!soa.isGate(id)) return step;
  double worst = 0.0;
  for (const std::uint32_t f : soa.fanins(id)) {
    if (arrival[f] >= worst) {
      worst = arrival[f];
      step.worstFanin = static_cast<std::int32_t>(f);
    }
  }
  step.arrival = worst + soa.gateDelay(id);
  return step;
}

/// Backward step: the minimum over fanouts of their required time minus
/// their delay, starting from `clock` at an endpoint.
inline double backwardStep(const circuit::NetlistSoA& soa,
                           const double* required, double clock,
                           std::uint32_t id) {
  double req = soa.isOutput(id) ? clock : kUnconstrained;
  for (const std::uint32_t fo : soa.fanouts(id)) {
    req = std::min(req, required[fo] - soa.gateDelay(fo));
  }
  return req;
}

/// Slack of a node; an unconstrained node gets the whole clock.
inline double slackOf(double arrival, double required, double clock) {
  return required == kUnconstrained ? clock : required - arrival;
}

/// The latest-arriving endpoint (id -1 when there is none).
struct CriticalEndpoint {
  double arrival = 0.0;
  std::int32_t id = -1;
};

/// Endpoint scan for the critical endpoint: the last maximum (>=) in
/// output order.
inline CriticalEndpoint criticalEndpoint(const circuit::NetlistSoA& soa,
                                         const double* arrival) {
  CriticalEndpoint end;
  for (const std::uint32_t id : soa.outputs()) {
    if (arrival[id] >= end.arrival) {
      end.arrival = arrival[id];
      end.id = static_cast<std::int32_t>(id);
    }
  }
  return end;
}

/// Endpoint scan for the worst slack (infinity when there is no endpoint).
inline double worstEndpointSlack(const circuit::NetlistSoA& soa,
                                 const double* slack) {
  double worst = kUnconstrained;
  for (const std::uint32_t id : soa.outputs()) {
    worst = std::min(worst, slack[id]);
  }
  return worst;
}

/// Reusable full-analysis engine over a NetlistSoA. Binds by reference;
/// the caller keeps the SoA alive. All working storage (the level-sweep
/// scratch and the TimingResult buffers) is allocated on the first
/// analyze() and reused afterwards, so steady-state re-analysis performs
/// zero heap allocations — arenaGrowthCount() is the proof the scale
/// smoke test asserts on.
class Sta {
 public:
  explicit Sta(const circuit::NetlistSoA& soa) : soa_(&soa) {}

  /// Analyze against `clockPeriod`; pass <= 0 to time against the
  /// circuit's own critical-path delay (zero worst slack). Returns the
  /// internal result, valid until the next analyze() call.
  const TimingResult& analyze(double clockPeriod = -1.0);

  [[nodiscard]] const TimingResult& result() const { return result_; }

  /// Heap-growth events of the scratch arena over this engine's lifetime
  /// (flat across steady-state analyze() calls).
  [[nodiscard]] std::int64_t arenaGrowthCount() const {
    return arena_.growthCount();
  }
  /// Flat-core working set: the bound SoA's arrays plus this engine's
  /// scratch, bytes. Also exported as the `sta/arena_bytes` gauge.
  [[nodiscard]] std::size_t arenaBytes() const {
    return soa_->arenaBytes() + arena_.bytesUsed();
  }

 private:
  struct SweepCtx {
    const circuit::NetlistSoA* soa = nullptr;
    const std::uint32_t* order = nullptr;
    double* arrival = nullptr;
    double* required = nullptr;
    double* slack = nullptr;
    std::int32_t* worstFanin = nullptr;
    std::size_t base = 0;  ///< offset of the level being swept
    double clock = 0.0;
  };

  const circuit::NetlistSoA* soa_;
  util::Arena arena_;
  std::int32_t* worstFanin_ = nullptr;
  SweepCtx ctx_;
  TimingResult result_;
};

/// One-shot analysis of a NetlistSoA.
TimingResult analyze(const circuit::NetlistSoA& soa, double clockPeriod = -1.0);

/// Analyze `netlist` against `clockPeriod` (object-API wrapper: mirrors
/// into a NetlistSoA and runs the flat engine; bit-identical results).
/// Pass clockPeriod <= 0 to time against the circuit's own critical-path
/// delay (zero worst slack).
TimingResult analyze(const circuit::Netlist& netlist, double clockPeriod = -1.0);

/// Fraction of endpoints whose path uses less than `fraction` of the clock
/// period (the paper's slack-profile statistic).
double fractionOfPathsFasterThan(const TimingResult& timing,
                                 const circuit::Netlist& netlist,
                                 double fraction);

/// Endpoint path-delay histogram normalized to the clock period.
util::Histogram pathDelayHistogram(const TimingResult& timing,
                                   const circuit::Netlist& netlist,
                                   int bins = 20);

}  // namespace nano::sta
