// The scenario request kinds through the evaluation layer: payloads must
// be byte-identical at any exec lane count (they are cached and replayed
// by the golden traces), and a sweep must evaluate every per-step check
// in every variant.
#include <gtest/gtest.h>

#include <variant>

#include "exec/exec.h"
#include "scenario/scenario.h"
#include "support/scenario_oracle.h"
#include "svc/eval.h"
#include "svc/json.h"
#include "svc/request.h"
#include "util/units.h"

namespace nano::svc {
namespace {

Request mustParse(const std::string& line) {
  Request r;
  std::string error;
  EXPECT_TRUE(parseRequest(line, r, error)) << error;
  return r;
}

std::string evalAtLanes(const Request& r, int lanes) {
  const int before = exec::threadCount();
  exec::setGlobalThreadCount(lanes);
  const Outcome outcome = evaluate(r);
  exec::setGlobalThreadCount(before);
  EXPECT_EQ(outcome.status, ResponseStatus::Ok) << outcome.error;
  return outcome.data;
}

TEST(ScenarioEval, SingleRunPayloadIsLaneInvariant) {
  const Request r = mustParse(
      R"({"kind":"scenario","params":{"steps":300,"trace_stride":50,)"
      R"("include_trace":true}})");
  const std::string one = evalAtLanes(r, 1);
  EXPECT_EQ(evalAtLanes(r, 8), one);
  const JsonValue doc = parseJson(one);
  const JsonValue* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_DOUBLE_EQ(summary->find("checks_evaluated")->asNumber(), 3.0 * 300);
  EXPECT_TRUE(summary->find("ok")->asBool());
  ASSERT_NE(doc.find("trace"), nullptr);
  EXPECT_FALSE(doc.find("trace")->items().empty());
}

TEST(ScenarioEval, SweepOf64VariantsIsDeterministicAndFullyChecked) {
  // The acceptance-criterion sweep: 8 x 8 = 64 policy variants through the
  // service evaluator, identical payload bytes at 1 and 8 lanes, and the
  // three per-step assertions evaluated on every step of every variant.
  const Request r = mustParse(
      R"({"kind":"scenario_sweep","params":{"steps":250,"axis_a":8,)"
      R"("axis_b":8}})");
  const std::string serial = evalAtLanes(r, 1);
  EXPECT_EQ(evalAtLanes(r, 8), serial);
  EXPECT_EQ(evalAtLanes(r, 2), serial);

  const JsonValue doc = parseJson(serial);
  EXPECT_DOUBLE_EQ(doc.find("variants")->asNumber(), 64.0);
  const auto& rows = doc.find("rows")->items();
  ASSERT_EQ(rows.size(), 64u);
  for (const JsonValue& row : rows) {
    const JsonValue* summary = row.find("summary");
    ASSERT_NE(summary, nullptr);
    EXPECT_DOUBLE_EQ(summary->find("checks_evaluated")->asNumber(),
                     3.0 * 250);
    // Interior knob sampling never collides with the "policy default"
    // sentinel at exactly 0.
    EXPECT_NE(row.find("knob_a")->asNumber(), 0.0);
    EXPECT_NE(row.find("knob_b")->asNumber(), 0.0);
  }
  // The best index, when present, points at an ok row.
  const int best = static_cast<int>(doc.find("best_index")->asNumber());
  if (best >= 0) {
    EXPECT_TRUE(rows[static_cast<std::size_t>(best)]
                    .find("summary")
                    ->find("ok")
                    ->asBool());
  }
}

/// The scenario_sweep reply built from the one-variant reference loop:
/// each variant resolved by makeScenario and run alone, in index order,
/// with the evaluator's knob sampling and field order.
std::string oracleSweepReply(const ScenarioSweepParams& p) {
  const std::string policy = p.base.policy.empty()
                                 ? scenario::defaultPolicyFor(p.base.scenario)
                                 : p.base.policy;
  const scenario::KnobRange range = scenario::knobRangeFor(policy);
  auto knobAt = [](double lo, double hi, int i, int n) {
    return lo + (hi - lo) * (static_cast<double>(i) + 0.5) /
                    static_cast<double>(n);
  };
  const int variants = p.axisA * p.axisB;
  int okCount = 0;
  int best = -1;
  double bestEnergy = 0.0;
  JsonValue rows = JsonValue::array();
  for (int idx = 0; idx < variants; ++idx) {
    scenario::ScenarioSpec spec;
    spec.nodeNm = p.base.nodeNm;
    spec.scenario = p.base.scenario;
    spec.policy = policy;
    spec.steps = p.base.steps;
    spec.dtUs = p.base.dtUs;
    spec.gates = p.base.gates;
    spec.seed = p.base.seed;
    spec.traceStride = p.base.traceStride;
    spec.knobA = knobAt(range.aLo, range.aHi, idx / p.axisB, p.axisA);
    spec.knobB = knobAt(range.bLo, range.bHi, idx % p.axisB, p.axisB);
    scenario::ScenarioSetup setup = scenario::makeScenario(spec);
    const scenario::ScenarioResult r = scenario::oracle::runScenarioReference(
        *setup.plant, *setup.policy, setup.config);
    if (r.ok) {
      ++okCount;
      if (best < 0 || r.energyJ < bestEnergy) {
        best = idx;
        bestEnergy = r.energyJ;
      }
    }
    JsonValue summary = JsonValue::object();
    summary.set("ok", r.ok);
    summary.set("steps", static_cast<double>(r.steps));
    summary.set("checks_evaluated", static_cast<double>(r.checksEvaluated));
    summary.set("violations", static_cast<double>(r.violationCount));
    summary.set("energy_j", r.energyJ);
    summary.set("baseline_energy_j", r.baselineEnergyJ);
    summary.set("energy_savings", r.energySavings());
    summary.set("throughput_fraction", r.throughputFraction);
    summary.set("max_temperature_k", r.maxTemperatureK);
    summary.set("avg_temperature_k", r.avgTemperatureK);
    summary.set("peak_power_w", r.peakPowerW);
    summary.set("peak_ir_drop_fraction", r.peakIrDropFraction);
    summary.set("peak_rush_fraction", r.peakRushFraction);
    summary.set("worst_slack_ps", r.worstSlackS / units::ps);
    summary.set("gate_events", static_cast<double>(r.gateEvents));
    summary.set("vdd_steps", static_cast<double>(r.vddSteps));
    JsonValue row = JsonValue::object();
    row.set("knob_a", spec.knobA);
    row.set("knob_b", spec.knobB);
    row.set("summary", std::move(summary));
    rows.push(std::move(row));
  }
  JsonValue data = JsonValue::object();
  data.set("node_nm", p.base.nodeNm);
  data.set("scenario", p.base.scenario);
  data.set("policy", policy);
  data.set("axis_a", p.axisA);
  data.set("axis_b", p.axisB);
  data.set("variants", variants);
  data.set("ok_count", okCount);
  data.set("best_index", best);
  data.set("rows", std::move(rows));
  return data.write();
}

TEST(ScenarioEval, SweepRepliesEqualTheOneVariantOracleAtAnyLaneCount) {
  // 16 variants split into 1, 2 and 8 lockstep blocks, and 9 variants
  // into uneven ones; every scenario and policy kind.
  for (const char* params :
       {R"("scenario":"dtm","steps":900,"axis_a":4,"axis_b":4)",
        R"("scenario":"dvfs","steps":700,"dt_us":37.5,"axis_a":4,"axis_b":4)",
        R"("scenario":"wakeup","steps":800,"axis_a":3,"axis_b":3)",
        R"("scenario":"dvfs","policy":"explore","steps":600,"axis_a":3,)"
        R"("axis_b":3)",
        R"("scenario":"wakeup","policy":"dtm","steps":500,"axis_a":2,)"
        R"("axis_b":5)"}) {
    SCOPED_TRACE(params);
    const Request r = mustParse(
        std::string(R"({"kind":"scenario_sweep","params":{)") + params + "}}");
    const std::string want =
        oracleSweepReply(std::get<ScenarioSweepParams>(r.params));
    for (const int lanes : {1, 2, 8}) {
      EXPECT_EQ(evalAtLanes(r, lanes), want) << lanes << " lanes";
    }
  }
}

TEST(ScenarioEval, SweepRunsEveryPolicyKind) {
  for (const char* policy : {"dtm", "dvfs", "explore"}) {
    const Request r = mustParse(
        std::string(
            R"({"kind":"scenario_sweep","params":{"steps":120,"axis_a":2,)") +
        R"("axis_b":2,"policy":")" + policy + R"("}})");
    const Outcome outcome = evaluate(r);
    ASSERT_EQ(outcome.status, ResponseStatus::Ok) << outcome.error;
    const JsonValue doc = parseJson(outcome.data);
    EXPECT_EQ(doc.find("policy")->asString(), policy);
    EXPECT_EQ(doc.find("rows")->items().size(), 4u);
  }
}

}  // namespace
}  // namespace nano::svc
