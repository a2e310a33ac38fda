#include "svc/request.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "svc/json.h"

namespace nano::svc {

namespace {

constexpr const char* kKindNames[kRequestKindCount] = {
    "figure1",      "figure2",     "figure34",       "figure5",
    "table2",       "design_point", "design_grid",   "design_optimum",
    "repeater",     "wire",        "grid_solve",     "node_summary",
    "sta",          "scenario",    "scenario_sweep", "stats",
};

constexpr const char* kPriorityNames[3] = {"high", "normal", "low"};

constexpr const char* kStatusNames[5] = {"ok", "error", "invalid", "shed",
                                         "timeout"};

}  // namespace

const char* kindName(RequestKind kind) {
  return kKindNames[static_cast<int>(kind)];
}

bool kindFromName(std::string_view name, RequestKind& out) {
  for (int i = 0; i < kRequestKindCount; ++i) {
    if (name == kKindNames[i]) {
      out = static_cast<RequestKind>(i);
      return true;
    }
  }
  return false;
}

bool priorityFromName(std::string_view name, Priority& out) {
  for (int i = 0; i < 3; ++i) {
    if (name == kPriorityNames[i]) {
      out = static_cast<Priority>(i);
      return true;
    }
  }
  return false;
}

const char* statusName(ResponseStatus status) {
  return kStatusNames[static_cast<int>(status)];
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// ------------------------------------------------------- canonical key

namespace {

/// Renders `name=value` pairs in declaration order with round-trip double
/// formatting, so the key is a pure function of the filled param struct.
class KeyBuilder {
 public:
  explicit KeyBuilder(RequestKind kind) : out_(kindName(kind)) {
    out_.push_back('(');
  }

  void field(const char* name, double v) { raw(name, formatJsonDouble(v)); }
  void field(const char* name, int v) { raw(name, std::to_string(v)); }
  void field(const char* name, bool v) { raw(name, v ? "true" : "false"); }
  void field(const char* name, const std::string& v) { raw(name, v); }

  std::string finish() {
    out_.push_back(')');
    return std::move(out_);
  }

 private:
  void raw(const char* name, const std::string& value) {
    if (!first_) out_.push_back(',');
    first_ = false;
    out_ += name;
    out_.push_back('=');
    out_ += value;
  }

  std::string out_;
  bool first_ = true;
};

// Single source of truth for every kind's wire fields: one fields()
// declaration per param struct, walked by three visitors — the canonical-
// key renderer, the JSONL parameter reader, and the params->JSON writer.
// A field added here is automatically keyed, parsed, rendered, and
// covered by the every-kind round-trip test; the three surfaces cannot
// drift apart. Validation that goes beyond types lives in
// validateParams() below, not here.

template <class V> void fields(V& v, Fig1Params& p) {
  v.integer("points", p.points);
}
template <class V> void fields(V&, Fig2Params&) {}
template <class V> void fields(V& v, Fig34Params& p) {
  v.integer("node_nm", p.nodeNm);
  v.integer("points", p.points);
  v.number("activity", p.activity);
  v.number("vdd_min", p.vddMin);
}
template <class V> void fields(V& v, Fig5Params& p) {
  v.boolean("mesh_check", p.meshCheck);
}
template <class V> void fields(V&, Table2Params&) {}
template <class V> void fields(V& v, DesignPointParams& p) {
  v.integer("node_nm", p.nodeNm);
  v.number("activity", p.activity);
  v.number("vdd", p.vdd);
  v.number("vth", p.vth);
}
template <class V> void fields(V& v, DesignGridParams& p) {
  v.integer("node_nm", p.nodeNm);
  v.number("activity", p.activity);
  v.number("vdd_min", p.vddMin);
  v.number("vth_min", p.vthMin);
  v.number("vth_max", p.vthMax);
  v.integer("vdd_steps", p.vddSteps);
  v.integer("vth_steps", p.vthSteps);
}
template <class V> void fields(V& v, DesignOptimumParams& p) {
  fields(v, p.grid);
  v.number("delay_target", p.delayTarget);
  v.number("max_static_fraction", p.maxStaticFraction);
}
template <class V> void fields(V& v, RepeaterParams& p) {
  v.integer("node_nm", p.nodeNm);
  v.number("width_multiple", p.widthMultiple);
}
template <class V> void fields(V& v, WireParams& p) {
  v.integer("node_nm", p.nodeNm);
  v.number("width_multiple", p.widthMultiple);
  v.boolean("match_spacing", p.matchSpacing);
}
template <class V> void fields(V& v, GridSolveParams& p) {
  v.integer("node_nm", p.nodeNm);
  v.number("width_multiple", p.widthMultiple);
  v.number("pad_pitch_um", p.padPitchUm);
  v.integer("subdivisions", p.subdivisions);
  v.boolean("hotspot", p.hotspot);
  v.text("preconditioner", p.preconditioner);
}
template <class V> void fields(V& v, NodeSummaryParams& p) {
  v.integer("node_nm", p.nodeNm);
}
template <class V> void fields(V& v, StaParams& p) {
  v.integer("node_nm", p.nodeNm);
  v.integer("gates", p.gates);
  v.integer("seed", p.seed);
  v.integer("blocks", p.blocks);
}
template <class V> void fields(V& v, ScenarioParams& p) {
  v.integer("node_nm", p.nodeNm);
  v.text("scenario", p.scenario);
  v.text("policy", p.policy);
  v.integer("steps", p.steps);
  v.number("dt_us", p.dtUs);
  v.integer("gates", p.gates);
  v.integer("seed", p.seed);
  v.integer("trace_stride", p.traceStride);
  v.boolean("include_trace", p.includeTrace);
  v.number("knob_a", p.knobA);
  v.number("knob_b", p.knobB);
}
template <class V> void fields(V& v, ScenarioSweepParams& p) {
  fields(v, p.base);
  v.integer("axis_a", p.axisA);
  v.integer("axis_b", p.axisB);
}
template <class V> void fields(V& v, StatsParams& p) {
  v.boolean("delta", p.delta);
}

/// fields() adapter rendering into a KeyBuilder.
struct KeyVisitor {
  KeyBuilder& k;
  void integer(const char* name, int& v) { k.field(name, v); }
  void number(const char* name, double& v) { k.field(name, v); }
  void boolean(const char* name, bool& v) { k.field(name, v); }
  void text(const char* name, std::string& v) { k.field(name, v); }
};

}  // namespace

std::string Request::canonicalKey() const {
  KeyBuilder k(kind);
  KeyVisitor visitor{k};
  Params copy = params;  // fields() binds mutably; rendering never writes
  std::visit([&visitor](auto& p) { fields(visitor, p); }, copy);
  return k.finish();
}

std::uint64_t Request::contentHash() const { return fnv1a64(canonicalKey()); }

// ------------------------------------------------------------- parsing

namespace {

/// Typed, consumption-tracked reads from the "params" object: every field
/// is optional (defaults hold), wrong types fail, and leftover keys fail
/// so a misspelled parameter cannot silently fall back to a default.
class ParamReader {
 public:
  explicit ParamReader(const JsonValue* obj) : obj_(obj) {
    if (obj_ != nullptr) consumed_.assign(obj_->members().size(), false);
  }

  void number(const char* name, double& out) {
    const JsonValue* v = take(name);
    if (v == nullptr) return;
    if (!v->isNumber()) fail(name, "a number");
    out = v->asNumber();
  }

  void integer(const char* name, int& out) {
    const JsonValue* v = take(name);
    if (v == nullptr) return;
    if (!v->isNumber()) fail(name, "a number");
    const double d = v->asNumber();
    if (d != std::floor(d) || std::fabs(d) > 1e9) fail(name, "an integer");
    out = static_cast<int>(d);
  }

  void boolean(const char* name, bool& out) {
    const JsonValue* v = take(name);
    if (v == nullptr) return;
    if (!v->isBool()) fail(name, "a boolean");
    out = v->asBool();
  }

  void string(const char* name, std::string& out) {
    const JsonValue* v = take(name);
    if (v == nullptr) return;
    if (!v->isString()) fail(name, "a string");
    out = v->asString();
  }

  /// Rejects any member no reader consumed.
  void finish() {
    if (obj_ == nullptr) return;
    const auto& members = obj_->members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!consumed_[i]) {
        throw std::invalid_argument("unknown parameter \"" + members[i].first +
                                    "\"");
      }
    }
  }

 private:
  const JsonValue* take(const char* name) {
    if (obj_ == nullptr) return nullptr;
    const auto& members = obj_->members();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i].first == name) {
        consumed_[i] = true;
        return &members[i].second;
      }
    }
    return nullptr;
  }

  [[noreturn]] static void fail(const char* name, const char* want) {
    throw std::invalid_argument(std::string("parameter \"") + name +
                                "\" must be " + want);
  }

  const JsonValue* obj_;
  std::vector<bool> consumed_;
};

/// fields() adapter pulling each declared field out of a ParamReader.
struct ReadVisitor {
  ParamReader& r;
  void integer(const char* name, int& v) { r.integer(name, v); }
  void number(const char* name, double& v) { r.number(name, v); }
  void boolean(const char* name, bool& v) { r.boolean(name, v); }
  void text(const char* name, std::string& v) { r.string(name, v); }
};

/// fields() adapter rendering each declared field into a JSON object.
struct JsonVisitor {
  JsonValue& obj;
  void integer(const char* name, int& v) { obj.set(name, v); }
  void number(const char* name, double& v) { obj.set(name, v); }
  void boolean(const char* name, bool& v) { obj.set(name, v); }
  void text(const char* name, std::string& v) { obj.set(name, v); }
};

// Cross-field and range validation, applied after a parse fills the struct
// (so the checks see the final values whether they came from the wire or
// from defaults). Throws std::invalid_argument like the readers do.

[[noreturn]] void rejectParam(const std::string& message) {
  throw std::invalid_argument("parameter " + message);
}

void requireRange(const char* name, int value, int lo, int hi) {
  if (value < lo || value > hi) {
    rejectParam("\"" + std::string(name) + "\" must be in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
}

template <class P> void validateParams(const P&) {}

// Sweep sizes: the figure sweeps cost ~40 us a point, and a design grid
// point ~20 us and ~230 bytes of response, which the cache then holds.
void validateParams(const Fig1Params& p) {
  requireRange("points", p.points, 2, 10000);
}

void validateParams(const Fig34Params& p) {
  requireRange("points", p.points, 2, 10000);
}

void validateParams(const DesignGridParams& p) {
  requireRange("vdd_steps", p.vddSteps, 2, 256);
  requireRange("vth_steps", p.vthSteps, 2, 256);
}

void validateParams(const DesignOptimumParams& p) { validateParams(p.grid); }

void validateParams(const GridSolveParams& p) {
  if (p.preconditioner != "auto" && p.preconditioner != "jacobi" &&
      p.preconditioner != "multigrid") {
    rejectParam("\"preconditioner\" must be one of auto/jacobi/multigrid");
  }
  // The fine mesh grows with the square of subdivisions; 1024 peaks at
  // about 80 MB.
  requireRange("subdivisions", p.subdivisions, 2, 1024);
}

void validateParams(const StaParams& p) {
  requireRange("gates", p.gates, 64, 2000000);
  requireRange("blocks", p.blocks, 1, 64);
}

void validateParams(const ScenarioParams& p) {
  if (p.scenario != "dtm" && p.scenario != "dvfs" && p.scenario != "wakeup") {
    rejectParam("\"scenario\" must be one of dtm/dvfs/wakeup");
  }
  if (!p.policy.empty() && p.policy != "dtm" && p.policy != "dvfs" &&
      p.policy != "explore") {
    rejectParam("\"policy\" must be one of dtm/dvfs/explore (or omitted)");
  }
  requireRange("steps", p.steps, 1, 200000);
  if (!(p.dtUs > 0.0) || !std::isfinite(p.dtUs)) {
    rejectParam("\"dt_us\" must be a positive finite number");
  }
  // Workload traces hold a phase per ~2 ms of simulated time, so memory
  // follows steps x dt_us, which the steps guard alone does not bound.
  if (static_cast<double>(p.steps) * p.dtUs > kMaxScenarioSimulatedUs) {
    rejectParam("\"steps\" x \"dt_us\" must be <= 1e7 (10 s simulated)");
  }
  requireRange("gates", p.gates, 64, 200000);
  if (p.traceStride < 1) rejectParam("\"trace_stride\" must be >= 1");
}

void validateParams(const ScenarioSweepParams& p) {
  validateParams(p.base);
  requireRange("axis_a", p.axisA, 1, 64);
  requireRange("axis_b", p.axisB, 1, 64);
}

}  // namespace

Params defaultParams(RequestKind kind) {
  switch (kind) {
    case RequestKind::Figure1: return Fig1Params{};
    case RequestKind::Figure2: return Fig2Params{};
    case RequestKind::Figure34: return Fig34Params{};
    case RequestKind::Figure5: return Fig5Params{};
    case RequestKind::Table2: return Table2Params{};
    case RequestKind::DesignPoint: return DesignPointParams{};
    case RequestKind::DesignGrid: return DesignGridParams{};
    case RequestKind::DesignOptimum: return DesignOptimumParams{};
    case RequestKind::Repeater: return RepeaterParams{};
    case RequestKind::Wire: return WireParams{};
    case RequestKind::GridSolve: return GridSolveParams{};
    case RequestKind::NodeSummary: return NodeSummaryParams{};
    case RequestKind::Sta: return StaParams{};
    case RequestKind::Scenario: return ScenarioParams{};
    case RequestKind::ScenarioSweep: return ScenarioSweepParams{};
    case RequestKind::Stats: return StatsParams{};
  }
  return Fig1Params{};
}

JsonValue paramsJson(const Params& params) {
  JsonValue obj = JsonValue::object();
  JsonVisitor visitor{obj};
  Params copy = params;  // fields() binds mutably; rendering never writes
  std::visit([&visitor](auto& p) { fields(visitor, p); }, copy);
  return obj;
}

bool parseRequest(const std::string& line, Request& out, std::string& error) {
  out = Request{};
  JsonValue doc;
  try {
    doc = parseJson(line);
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
  if (!doc.isObject()) {
    error = "request must be a JSON object";
    return false;
  }
  if (const JsonValue* id = doc.find("id"); id != nullptr && id->isString()) {
    out.id = id->asString();  // best-effort echo even when the rest fails
  }
  try {
    for (const auto& [key, value] : doc.members()) {
      if (key == "id") {
        if (!value.isString()) throw std::invalid_argument("\"id\" must be a string");
      } else if (key == "kind") {
        if (!value.isString() || !kindFromName(value.asString(), out.kind)) {
          throw std::invalid_argument(
              "unknown kind" +
              (value.isString() ? " \"" + value.asString() + "\"" : ""));
        }
      } else if (key == "priority") {
        if (!value.isString() ||
            !priorityFromName(value.asString(), out.priority)) {
          throw std::invalid_argument("\"priority\" must be high/normal/low");
        }
      } else if (key == "deadline_ms") {
        if (!value.isNumber() || !(value.asNumber() >= 0.0)) {
          throw std::invalid_argument("\"deadline_ms\" must be a number >= 0");
        }
        // Clamp, don't reject: a huge deadline means "effectively none",
        // and letting it through raw would overflow the scheduler's
        // duration conversion.
        out.deadlineMs = std::min(value.asNumber(), kMaxDeadlineMs);
      } else if (key != "params") {
        throw std::invalid_argument("unknown request field \"" + key + "\"");
      }
    }
    const JsonValue* kindField = doc.find("kind");
    if (kindField == nullptr) throw std::invalid_argument("missing \"kind\"");
    const JsonValue* paramsField = doc.find("params");
    if (paramsField != nullptr && !paramsField->isObject()) {
      throw std::invalid_argument("\"params\" must be an object");
    }
    out.params = defaultParams(out.kind);
    ParamReader reader(paramsField);
    ReadVisitor visitor{reader};
    std::visit([&visitor](auto& p) { fields(visitor, p); }, out.params);
    reader.finish();
    std::visit([](const auto& p) { validateParams(p); }, out.params);
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
  return true;
}

// ----------------------------------------------------------- responses

std::string Response::toJsonLine() const {
  std::string out = "{\"id\":" + quoteJsonString(id);
  if (hasKind) {
    out += ",\"kind\":\"";
    out += kindName(kind);
    out += '"';
  }
  out += ",\"status\":\"";
  out += statusName(status);
  out += '"';
  if (status == ResponseStatus::Ok) {
    out += ",\"data\":";
    out += data.empty() ? "{}" : data;
  } else {
    out += ",\"error\":" + quoteJsonString(error);
  }
  out.push_back('}');
  return out;
}

Response makeResponse(const Request& request, const Outcome& outcome) {
  Response r;
  r.id = request.id;
  r.hasKind = true;
  r.kind = request.kind;
  r.status = outcome.status;
  r.data = outcome.data;
  r.error = outcome.error;
  r.traceId = request.trace.id;
  return r;
}

Response makeFailure(const Request& request, ResponseStatus status,
                     std::string message) {
  Response r;
  r.id = request.id;
  r.hasKind = status != ResponseStatus::Invalid;
  r.kind = request.kind;
  r.status = status;
  r.error = std::move(message);
  r.traceId = request.trace.id;
  return r;
}

}  // namespace nano::svc
