// Typed request/response layer of the evaluation service. A request names
// one model query — a paper figure/table, a design-space point or grid, a
// repeater/wire characterization, or a power-grid solve — with typed,
// default-filled parameters. Two requests asking the same question produce
// the same canonical key (admission fields like id/priority/deadline are
// excluded), which is what the result cache and in-flight deduplication
// key on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "obs/journal.h"
#include "svc/json.h"

namespace nano::svc {

/// Every query the service answers. Names on the wire are the lowercase
/// strings from kindName().
enum class RequestKind {
  Figure1,        ///< Pstat/Pdyn vs activity series (paper Figure 1)
  Figure2,        ///< dual-Vth scalability per node (Figure 2)
  Figure34,       ///< Vdd sweep under the three Vth policies (Figures 3-4)
  Figure5,        ///< IR-drop linewidth scaling rows (Figure 5)
  Table2,         ///< analytical Ioff-scaling table
  DesignPoint,    ///< one (Vdd, Vth) operating point
  DesignGrid,     ///< the full (Vdd, Vth) exploration grid
  DesignOptimum,  ///< constrained minimum-power point
  Repeater,       ///< optimal repeater insertion for a node's global wire
  Wire,           ///< per-length RC of a node's global wire
  GridSolve,      ///< one power-grid mesh solve
  NodeSummary,    ///< end-to-end roadmap-node characterization
  Sta,            ///< full STA of a generated netlist (flat SoA engine)
  Scenario,       ///< one closed-loop DTM/DVS scenario run
  ScenarioSweep,  ///< policy-knob grid of scenario runs (parallel sweep)
  Stats,          ///< live metrics snapshot of the serving process
};
inline constexpr int kRequestKindCount = 16;

/// Stable wire name ("figure1", "design_point", ...).
const char* kindName(RequestKind kind);
/// Reverse lookup; returns false for unknown names.
bool kindFromName(std::string_view name, RequestKind& out);

/// Largest accepted `deadline_ms` (one hour). Anything bigger is clamped
/// at parse time (and again defensively at enqueue time): an arbitrary
/// client double like 1e300 would otherwise overflow the duration_cast
/// into UB, and no realistic deadline is longer than this anyway.
inline constexpr double kMaxDeadlineMs = 3.6e6;

/// Admission priority: the scheduler drains High before Normal before Low.
enum class Priority { High, Normal, Low };
bool priorityFromName(std::string_view name, Priority& out);

// Per-kind parameters. Fields default to the library's canonical values so
// a request may omit any of them; the canonical key is rendered from the
// filled struct, making {"points":9} and {} the same cache entry.

struct Fig1Params {
  int points = 9;
};
struct Fig2Params {};
struct Fig34Params {
  int nodeNm = 35;
  int points = 9;
  double activity = 0.1;
  double vddMin = 0.2;
};
struct Fig5Params {
  bool meshCheck = false;
};
struct Table2Params {};
struct DesignPointParams {
  int nodeNm = 35;
  double activity = 0.1;
  double vdd = 0.6;
  double vth = 0.2;
};
struct DesignGridParams {
  int nodeNm = 35;
  double activity = 0.1;
  double vddMin = 0.2;
  double vthMin = -0.05;
  double vthMax = 0.30;
  int vddSteps = 15;
  int vthSteps = 15;
};
struct DesignOptimumParams {
  DesignGridParams grid;
  double delayTarget = 1.0;
  double maxStaticFraction = 1.0;
};
struct RepeaterParams {
  int nodeNm = 35;
  double widthMultiple = 1.0;
};
struct WireParams {
  int nodeNm = 35;
  double widthMultiple = 1.0;
  bool matchSpacing = true;
};
struct GridSolveParams {
  int nodeNm = 35;
  double widthMultiple = 4.0;
  /// Bump pitch in um; 0 selects the node's minimum manufacturable pitch.
  double padPitchUm = 0.0;
  int subdivisions = 8;
  bool hotspot = true;
  /// "auto" | "jacobi" | "multigrid".
  std::string preconditioner = "auto";
};
struct NodeSummaryParams {
  int nodeNm = 35;
};
struct StaParams {
  int nodeNm = 35;
  /// Total gate target of the generated design slice (64 .. 2,000,000 —
  /// the service guards the upper end so one request cannot occupy an
  /// evaluation lane for minutes).
  int gates = 20000;
  /// Generator seed; same (node, gates, seed, blocks) => same netlist and
  /// bit-identical timing, so the result caches like any pure kind.
  int seed = 1;
  /// Pipeline blocks of the generated slice (depth spread).
  int blocks = 8;
};
/// Largest accepted scenario length, steps x dt_us (10 s of simulated
/// time: 200,000 steps at the canonical 50 us). The dtm workload draws a
/// phase per ~2 ms simulated, so this bounds a request's trace memory.
inline constexpr double kMaxScenarioSimulatedUs = 1e7;

struct ScenarioParams {
  int nodeNm = 35;
  /// Canonical scenario: "dtm" | "dvfs" | "wakeup" (workload + packaging).
  std::string scenario = "dtm";
  /// Policy plug-in: "" picks the scenario's default; else "dtm" | "dvfs"
  /// | "explore".
  std::string policy;
  /// Integration steps (1 .. 200,000 — the guard keeps one request from
  /// occupying an evaluation lane for minutes) of `dt_us` each, with
  /// steps x dt_us <= kMaxScenarioSimulatedUs.
  int steps = 2000;
  double dtUs = 50.0;
  /// Generated design slice sizing the plant's timing substrate.
  int gates = 2000;
  int seed = 1;
  int traceStride = 100;
  /// Include the decimated per-step trace in the payload (summaries only
  /// when false — sweeps always omit it).
  bool includeTrace = false;
  /// Policy tuning knobs (0 = policy default); meaning per policy:
  ///   dtm:     A = throttle factor,       B = trip margin below tjMax, K
  ///   dvfs:    A = level-voltage scale,   B = gate-below-demand threshold
  ///   explore: A = Vdd exploration floor, B = slack guard fraction
  double knobA = 0.0;
  double knobB = 0.0;
};
struct ScenarioSweepParams {
  /// Shared run configuration; knob_a/knob_b/include_trace are ignored
  /// (the sweep sets the knobs per variant and never returns traces).
  ScenarioParams base;
  /// Grid of policy-knob variants spanning the policy's knob ranges:
  /// axis_a x axis_b runs (1 .. 64 each, at most 4096 total).
  int axisA = 8;
  int axisB = 8;
};
struct StatsParams {
  /// Report counter increases since the previous stats snapshot instead of
  /// absolute values.
  bool delta = false;
};

using Params =
    std::variant<Fig1Params, Fig2Params, Fig34Params, Fig5Params, Table2Params,
                 DesignPointParams, DesignGridParams, DesignOptimumParams,
                 RepeaterParams, WireParams, GridSolveParams,
                 NodeSummaryParams, StaParams, ScenarioParams,
                 ScenarioSweepParams, StatsParams>;

/// Default-initialized parameters for a kind (what an empty "params"
/// object parses to).
Params defaultParams(RequestKind kind);

/// The wire-form "params" object of a filled param struct: every field
/// rendered in canonical order. Parsing it back under the same kind
/// reproduces the identical struct and canonical key — the round-trip
/// the request tests pin down for every registered kind.
JsonValue paramsJson(const Params& params);

/// One admitted request. `id` is an opaque client token echoed back on the
/// response; it plays no role in caching.
struct Request {
  std::string id;
  RequestKind kind = RequestKind::Figure1;
  Priority priority = Priority::Normal;
  /// Time budget in ms from admission to evaluation start; < 0 means none.
  /// 0 is deterministically "already expired" (used to test the timeout
  /// path without racing the clock).
  double deadlineMs = -1.0;
  Params params;
  /// Request identity for tracing. Assigned by the front end at parse time
  /// (runServer numbers lines) or by Service::submit for direct callers;
  /// excluded from the canonical key so it never affects caching.
  obs::TraceContext trace;
  /// canonicalKey(), once Service::submit has built it (empty before), so
  /// the evaluation that follows a cache miss does not build it again.
  std::string key;

  /// Canonical content key: kind plus every parameter (defaults filled) in
  /// a fixed order with round-trip double formatting. Equal keys <=> same
  /// evaluation result.
  [[nodiscard]] std::string canonicalKey() const;
  /// FNV-1a 64-bit hash of canonicalKey(); shard selector for the cache.
  [[nodiscard]] std::uint64_t contentHash() const;
};

/// FNV-1a 64-bit (exposed for tests and the cache's shard selection).
std::uint64_t fnv1a64(std::string_view bytes);

/// Parse one JSONL request: {"id":..., "kind":..., "priority":...,
/// "deadline_ms":..., "params":{...}}. Unknown kinds, malformed JSON,
/// wrong-typed or unknown parameter fields all fail with a message (the
/// server turns that into a status:"invalid" response). On failure `out.id`
/// still carries the request id when one could be extracted.
bool parseRequest(const std::string& line, Request& out, std::string& error);

/// How a request left the service.
enum class ResponseStatus {
  Ok,       ///< evaluated (possibly from cache); `data` holds the payload
  Error,    ///< evaluation failed deterministically (bad node, solver, ...)
  Invalid,  ///< the request never parsed; nothing was evaluated
  Shed,     ///< rejected at admission: queue full (backpressure)
  Timeout,  ///< deadline expired before evaluation started
};
const char* statusName(ResponseStatus status);

/// Content-determined result of evaluating a request: what the cache
/// stores. Only Ok and Error outcomes exist here — Shed/Timeout/Invalid
/// are admission outcomes, never cached.
struct Outcome {
  ResponseStatus status = ResponseStatus::Ok;
  std::string data;   ///< serialized JSON object (Ok), empty otherwise
  std::string error;  ///< message (Error), empty otherwise
};

/// One response line. Everything needed to render
/// {"id":...,"kind":...,"status":...,"data":{...}} deterministically.
struct Response {
  std::string id;
  bool hasKind = false;
  RequestKind kind = RequestKind::Figure1;
  ResponseStatus status = ResponseStatus::Ok;
  std::string data;
  std::string error;

  // Observability annotations riding alongside the wire fields. NEVER
  // serialized by toJsonLine(), so replay output stays content-determined
  // whether or not tracing is on. Timestamps are obs::timingNowNs()
  // samples (0 = not captured); the session samples the final "emitted"
  // timestamp itself, so queue_wait (submit->dispatch), work
  // (dispatch->done), and emit (done->emitted) partition the request's
  // wall time exactly in integer nanoseconds. A cache hit stamps all three
  // at once: zero queue_wait and work.
  std::uint64_t traceId = 0;
  std::int64_t submitNs = 0;     ///< admitted into the scheduler queue
  std::int64_t dispatchNs = 0;   ///< picked up by an exec lane
  std::int64_t doneNs = 0;       ///< handler finished, completion called
  std::int64_t evalNs = 0;       ///< ns spent inside evaluate() (0 on hits)
  std::int64_t dedupJoinNs = 0;  ///< ns blocked joining an in-flight compute

  /// The JSONL wire form (no trailing newline).
  [[nodiscard]] std::string toJsonLine() const;
};

/// Assemble the response for `request` from a cached or fresh outcome.
Response makeResponse(const Request& request, const Outcome& outcome);
/// Response for a request that failed admission (shed/timeout/invalid).
Response makeFailure(const Request& request, ResponseStatus status,
                     std::string message);

}  // namespace nano::svc
