#include "svc/eval.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "circuit/generator.h"
#include "circuit/library.h"
#include "circuit/netlist_soa.h"
#include "core/analysis.h"
#include "core/design_space.h"
#include "core/experiments.h"
#include "exec/exec.h"
#include "interconnect/repeater.h"
#include "interconnect/wire.h"
#include "obs/obs.h"
#include "powergrid/grid_model.h"
#include "powergrid/irdrop.h"
#include "scenario/scenario.h"
#include "sta/sta.h"
#include "svc/json.h"
#include "tech/itrs.h"
#include "util/rng.h"
#include "util/units.h"

namespace nano::svc {

namespace {

using namespace nano::units;

JsonValue irDropReportJson(const powergrid::IrDropReport& r) {
  JsonValue o = JsonValue::object();
  o.set("pad_pitch_um", r.padPitch / um);
  o.set("rail_pitch_um", r.railPitch / um);
  o.set("required_width_um", r.requiredWidth / um);
  o.set("width_over_min", r.widthOverMin);
  o.set("routing_fraction", r.routingFraction);
  o.set("bump_current_a", r.bumpCurrent);
  o.set("bump_current_ok", r.bumpCurrentOk);
  o.set("vdd_bump_count", r.vddBumpCount);
  if (r.meshDropFraction >= 0.0) o.set("mesh_drop_fraction", r.meshDropFraction);
  return o;
}

JsonValue operatingPointJson(const core::OperatingPoint& pt) {
  JsonValue o = JsonValue::object();
  o.set("vdd", pt.vdd);
  o.set("vth_design", pt.vthDesign);
  o.set("delay_norm", pt.delayNorm);
  o.set("pdyn_norm", pt.pdynNorm);
  o.set("pstat_norm", pt.pstatNorm);
  o.set("ptotal_norm", pt.ptotalNorm);
  o.set("static_fraction", pt.staticFraction);
  return o;
}

JsonValue table2RowJson(const core::Table2Row& row) {
  JsonValue o = JsonValue::object();
  o.set("node_nm", row.nodeNm);
  o.set("vdd", row.vdd);
  o.set("coxe_norm", row.coxeNorm);
  o.set("cox_phys_norm", row.coxPhysNorm);
  o.set("vth_required", row.vthRequired);
  o.set("ioff_na_um", row.ioffNaUm);
  o.set("vth_metal", row.vthMetal);
  o.set("ioff_metal_na_um", row.ioffMetalNaUm);
  o.set("ioff_itrs_na_um", row.ioffItrsNaUm);
  return o;
}

JsonValue evalFigure1(const Fig1Params& p) {
  JsonValue points = JsonValue::array();
  for (const core::Fig1Point& pt : core::computeFigure1(p.points)) {
    JsonValue o = JsonValue::object();
    o.set("activity", pt.activity);
    o.set("ratio_70nm_09v", pt.ratio70nm09V);
    o.set("ratio_50nm_07v", pt.ratio50nm07V);
    o.set("ratio_50nm_06v", pt.ratio50nm06V);
    points.push(std::move(o));
  }
  JsonValue data = JsonValue::object();
  data.set("points", std::move(points));
  return data;
}

JsonValue evalFigure2(const Fig2Params&) {
  JsonValue points = JsonValue::array();
  for (const core::Fig2Point& pt : core::computeFigure2()) {
    JsonValue o = JsonValue::object();
    o.set("node_nm", pt.nodeNm);
    o.set("ion_gain_percent", pt.ionGainPercent);
    o.set("ioff_penalty_for_20", pt.ioffPenaltyFor20);
    points.push(std::move(o));
  }
  JsonValue data = JsonValue::object();
  data.set("points", std::move(points));
  return data;
}

JsonValue evalFigure34(const Fig34Params& p) {
  JsonValue points = JsonValue::array();
  for (const core::Fig34Point& pt :
       core::computeFigure34(p.nodeNm, p.points, p.activity, p.vddMin)) {
    JsonValue o = JsonValue::object();
    o.set("vdd", pt.vdd);
    for (std::size_t i = 0; i < core::kVthPolicies.size(); ++i) {
      const std::string policy = core::policyName(core::kVthPolicies[i]);
      JsonValue per = JsonValue::object();
      per.set("vth_design", pt.vthDesign[i]);
      per.set("delay_norm", pt.delayNorm[i]);
      per.set("pdyn_over_pstat", pt.pdynOverPstat[i]);
      o.set(policy, std::move(per));
    }
    points.push(std::move(o));
  }
  JsonValue data = JsonValue::object();
  data.set("points", std::move(points));
  return data;
}

JsonValue evalFigure5(const Fig5Params& p) {
  JsonValue rows = JsonValue::array();
  for (const core::Fig5Row& row : core::computeFigure5(p.meshCheck)) {
    JsonValue o = JsonValue::object();
    o.set("node_nm", row.nodeNm);
    o.set("min_pitch", irDropReportJson(row.minPitch));
    o.set("itrs", irDropReportJson(row.itrs));
    rows.push(std::move(o));
  }
  JsonValue data = JsonValue::object();
  data.set("rows", std::move(rows));
  return data;
}

JsonValue evalTable2(const Table2Params&) {
  const core::Table2 t = core::computeTable2();
  JsonValue rows = JsonValue::array();
  for (const core::Table2Row& row : t.rows) rows.push(table2RowJson(row));
  JsonValue data = JsonValue::object();
  data.set("rows", std::move(rows));
  data.set("row_50_at_07", table2RowJson(t.row50At07));
  data.set("model_growth", t.modelGrowth);
  data.set("itrs_growth", t.itrsGrowth);
  return data;
}

core::DesignSpaceOptions gridOptions(const DesignGridParams& p) {
  core::DesignSpaceOptions o;
  o.nodeNm = p.nodeNm;
  o.activity = p.activity;
  o.vddMin = p.vddMin;
  o.vthMin = p.vthMin;
  o.vthMax = p.vthMax;
  o.vddSteps = p.vddSteps;
  o.vthSteps = p.vthSteps;
  return o;
}

JsonValue evalDesignPoint(const DesignPointParams& p) {
  core::DesignSpaceOptions o;
  o.nodeNm = p.nodeNm;
  o.activity = p.activity;
  return operatingPointJson(core::evaluatePoint(o, p.vdd, p.vth));
}

JsonValue evalDesignGrid(const DesignGridParams& p) {
  JsonValue points = JsonValue::array();
  for (const core::OperatingPoint& pt :
       core::exploreDesignSpace(gridOptions(p))) {
    points.push(operatingPointJson(pt));
  }
  JsonValue data = JsonValue::object();
  data.set("vdd_steps", p.vddSteps);
  data.set("vth_steps", p.vthSteps);
  data.set("points", std::move(points));
  return data;
}

JsonValue evalDesignOptimum(const DesignOptimumParams& p) {
  return operatingPointJson(core::optimalPoint(gridOptions(p.grid),
                                               p.delayTarget,
                                               p.maxStaticFraction));
}

JsonValue evalRepeater(const RepeaterParams& p) {
  const tech::TechNode& node = tech::nodeByFeature(p.nodeNm);
  const auto driver = interconnect::RepeaterDriver::fromNode(node);
  const auto rc = interconnect::computeWireRc(
      interconnect::topLevelWire(node, p.widthMultiple));
  const auto closed = interconnect::optimalRepeatersClosedForm(driver, rc);
  const auto numeric = interconnect::optimalRepeatersNumeric(driver, rc);
  auto designJson = [](const interconnect::RepeaterDesign& d) {
    JsonValue o = JsonValue::object();
    o.set("segment_length_um", d.segmentLength / um);
    o.set("size", d.size);
    o.set("delay_ps_per_mm", d.delayPerMeter * 1e12 * 1e-3);
    return o;
  };
  JsonValue data = JsonValue::object();
  data.set("node_nm", p.nodeNm);
  data.set("closed_form", designJson(closed));
  data.set("numeric", designJson(numeric));
  return data;
}

JsonValue evalWire(const WireParams& p) {
  const tech::TechNode& node = tech::nodeByFeature(p.nodeNm);
  const auto rc = interconnect::computeWireRc(
      interconnect::topLevelWire(node, p.widthMultiple, p.matchSpacing));
  JsonValue data = JsonValue::object();
  data.set("node_nm", p.nodeNm);
  data.set("resistance_ohm_per_mm", rc.resistancePerM * 1e-3);
  data.set("ground_cap_ff_per_mm", rc.groundCapPerM / fF * 1e-3);
  data.set("coupling_cap_ff_per_mm", rc.couplingCapPerM / fF * 1e-3);
  data.set("total_cap_ff_per_mm", rc.totalCapPerM() / fF * 1e-3);
  data.set("worst_case_cap_ff_per_mm", rc.worstCaseCapPerM() / fF * 1e-3);
  return data;
}

JsonValue evalGridSolve(const GridSolveParams& p) {
  const tech::TechNode& node = tech::nodeByFeature(p.nodeNm);
  const double padPitch = p.padPitchUm > 0.0 ? p.padPitchUm * um
                                             : node.minBumpPitch;
  powergrid::GridConfig config =
      powergrid::gridConfigForNode(node, p.widthMultiple, padPitch, p.hotspot);
  config.subdivisions = p.subdivisions;
  powergrid::GridSolverOptions options;
  if (p.preconditioner == "jacobi") {
    options.preconditioner = powergrid::PreconditionerKind::Jacobi;
  } else if (p.preconditioner == "multigrid") {
    options.preconditioner = powergrid::PreconditionerKind::Multigrid;
  }
  const powergrid::GridSolution sol = powergrid::solveGrid(config, options);
  // A poisoned solve leaves dropV all zeros: answering it ok would
  // report a 0 V drop.
  if (sol.cgDiagnostics.status == util::SolverStatus::NanDetected) {
    throw std::runtime_error(
        std::string("grid_solve: the mesh solve failed with solver_status ") +
        util::solverStatusName(sol.cgDiagnostics.status));
  }
  // The mesh model assumes a drop small against the supply; a drop at or
  // above it is outside the model, not an answer.
  if (!(sol.maxDropFraction < 1.0)) {
    std::string message = "grid_solve: max_drop_fraction ";
    appendJsonDouble(message, sol.maxDropFraction);
    message += " is at or above 1; the mesh model assumes a small drop";
    throw std::runtime_error(message);
  }
  JsonValue data = JsonValue::object();
  data.set("node_nm", p.nodeNm);
  data.set("unknowns", static_cast<double>(sol.unknowns));
  data.set("max_drop_v", sol.maxDrop);
  data.set("max_drop_fraction", sol.maxDropFraction);
  data.set("cg_iterations", sol.cgIterations);
  data.set("converged", sol.cgConverged);
  data.set("solver_status",
           util::solverStatusName(sol.cgDiagnostics.status));
  data.set("preconditioner", sol.preconditioner);
  data.set("mg_levels", sol.mgLevels);
  data.set("mg_fell_back", sol.mgFellBack);
  return data;
}

JsonValue evalNodeSummary(const NodeSummaryParams& p) {
  const core::NodeSummary s = core::summarizeNode(p.nodeNm);
  JsonValue data = JsonValue::object();
  data.set("node_nm", p.nodeNm);
  data.set("vth_required", s.vthRequired);
  data.set("ion_ua_um", s.ionUaUm);
  data.set("ioff_na_um", s.ioffNaUm);
  data.set("ioff_hot_na_um", s.ioffHotNaUm);
  data.set("fo4_delay_ps", s.fo4DelayPs);
  data.set("fo4_per_cycle", s.fo4PerCycle);
  data.set("max_power_w", s.maxPowerW);
  data.set("supply_current_a", s.supplyCurrentA);
  data.set("standby_current_budget_a", s.standbyCurrentBudgetA);
  data.set("theta_ja_required", s.thetaJaRequired);
  data.set("packaging",
           s.packaging != nullptr ? s.packaging->name : std::string("none"));
  data.set("cooling_cost_usd", s.coolingCostUsd);
  data.set("die_crossing_cycles", s.wiring.cyclesToCrossDie);
  data.set("repeater_count", s.wiring.repeaterCount);
  data.set("repeater_area_fraction", s.wiring.repeaterAreaFraction);
  data.set("grid_min_pitch", irDropReportJson(s.gridMinPitch));
  data.set("grid_itrs", irDropReportJson(s.gridItrs));
  JsonValue wake = JsonValue::object();
  wake.set("noise_fraction", s.wakeup.noiseFraction);
  wake.set("within_budget", s.wakeup.withinBudget);
  wake.set("decap_needed_f", s.wakeup.decapNeeded);
  data.set("wakeup", std::move(wake));
  return data;
}

JsonValue evalSta(const StaParams& p) {
  const circuit::Library& library = circuit::roadmapLibrary(p.nodeNm);
  util::Rng rng(static_cast<std::uint64_t>(p.seed));
  const circuit::GeneratorConfig cfg = circuit::scaledConfig(p.gates);
  const circuit::Netlist netlist =
      circuit::pipelinedLogic(library, cfg, rng, p.blocks);
  const circuit::NetlistSoA soa(netlist, {.keepCells = false});
  const sta::TimingResult r = sta::analyze(soa);
  JsonValue data = JsonValue::object();
  data.set("node_nm", p.nodeNm);
  data.set("gates", netlist.gateCount());
  data.set("nodes", netlist.nodeCount());
  data.set("endpoints", static_cast<int>(netlist.outputs().size()));
  data.set("levels", static_cast<int>(soa.levelCount()));
  data.set("critical_path_delay_ps", r.criticalPathDelay / ps);
  data.set("critical_path_gates",
           static_cast<int>(r.criticalPath.size()));
  // The paper's slack-profile statistic: share of endpoints using less
  // than half the (critical-path) cycle.
  data.set("fraction_faster_than_half",
           sta::fractionOfPathsFasterThan(r, netlist, 0.5));
  data.set("soa_bytes", static_cast<double>(soa.arenaBytes()));
  return data;
}

scenario::ScenarioSpec scenarioSpec(const ScenarioParams& p) {
  scenario::ScenarioSpec spec;
  spec.nodeNm = p.nodeNm;
  spec.scenario = p.scenario;
  spec.policy = p.policy;
  spec.steps = p.steps;
  spec.dtUs = p.dtUs;
  spec.gates = p.gates;
  spec.seed = p.seed;
  spec.traceStride = p.traceStride;
  spec.knobA = p.knobA;
  spec.knobB = p.knobB;
  return spec;
}

JsonValue scenarioSummaryJson(const scenario::ScenarioResult& r) {
  JsonValue o = JsonValue::object();
  o.set("ok", r.ok);
  o.set("steps", static_cast<double>(r.steps));
  o.set("checks_evaluated", static_cast<double>(r.checksEvaluated));
  o.set("violations", static_cast<double>(r.violationCount));
  o.set("energy_j", r.energyJ);
  o.set("baseline_energy_j", r.baselineEnergyJ);
  o.set("energy_savings", r.energySavings());
  o.set("throughput_fraction", r.throughputFraction);
  o.set("max_temperature_k", r.maxTemperatureK);
  o.set("avg_temperature_k", r.avgTemperatureK);
  o.set("peak_power_w", r.peakPowerW);
  o.set("peak_ir_drop_fraction", r.peakIrDropFraction);
  o.set("peak_rush_fraction", r.peakRushFraction);
  o.set("worst_slack_ps", r.worstSlackS / ps);
  o.set("gate_events", static_cast<double>(r.gateEvents));
  o.set("vdd_steps", static_cast<double>(r.vddSteps));
  return o;
}

JsonValue evalScenario(const ScenarioParams& p) {
  scenario::ScenarioSetup setup = scenario::makeScenario(scenarioSpec(p));
  const scenario::ScenarioResult r =
      scenario::runScenario(*setup.plant, *setup.policy, setup.config);
  JsonValue data = JsonValue::object();
  data.set("node_nm", p.nodeNm);
  data.set("scenario", p.scenario);
  data.set("policy", setup.policy->name());
  data.set("clock_period_ps", setup.plant->clockPeriod() / ps);
  data.set("gate_count", setup.plant->gateCount());
  data.set("base_drop_fraction", setup.plant->baseDropFraction());
  data.set("summary", scenarioSummaryJson(r));
  JsonValue violations = JsonValue::array();
  for (const scenario::Violation& v : r.violations) {
    JsonValue o = JsonValue::object();
    o.set("check", scenario::checkKindName(v.kind));
    o.set("step", static_cast<double>(v.step));
    o.set("time_s", v.timeS);
    o.set("value", v.value);
    o.set("limit", v.limit);
    violations.push(std::move(o));
  }
  data.set("violations", std::move(violations));
  if (p.includeTrace) {
    JsonValue trace = JsonValue::array();
    for (const scenario::StepRecord& s : r.trace) {
      JsonValue o = JsonValue::object();
      o.set("time_s", s.timeS);
      o.set("demand", s.demand);
      o.set("freq_fraction", s.freqFraction);
      o.set("vdd_fraction", s.vddFraction);
      o.set("gated", s.gated);
      o.set("power_w", s.powerW);
      o.set("temperature_k", s.temperatureK);
      o.set("slack_ps", s.slackS / ps);
      o.set("ir_drop_fraction", s.irDropFraction);
      o.set("rush_fraction", s.rushFraction);
      o.set("violations", static_cast<double>(s.violations));
      trace.push(std::move(o));
    }
    data.set("trace", std::move(trace));
  }
  return data;
}

JsonValue evalScenarioSweep(const ScenarioSweepParams& p) {
  const std::string policy = p.base.policy.empty()
                                 ? scenario::defaultPolicyFor(p.base.scenario)
                                 : p.base.policy;
  const scenario::KnobRange range = scenario::knobRangeFor(policy);
  // Interior sampling: (i + 0.5) / axis never lands on a knob value of
  // exactly 0, which would read as "policy default" instead of the
  // sampled point.
  auto knobAt = [](double lo, double hi, int i, int n) {
    return lo + (hi - lo) * (static_cast<double>(i) + 0.5) /
                    static_cast<double>(n);
  };
  scenario::ScenarioSpec base = scenarioSpec(p.base);
  base.policy = policy;
  // Warm the plant cache once so the parallel blocks all share one build
  // instead of racing to construct identical plants.
  (void)scenario::makeScenario(base);
  const int variants = p.axisA * p.axisB;
  struct Row {
    double knobA = 0.0, knobB = 0.0;
    scenario::ScenarioResult result;
  };
  std::vector<Row> rows(static_cast<std::size_t>(variants));
  // One contiguous block of variants per exec lane, stepped in lockstep by
  // one runScenarios call. The knobs change only the policy, so every
  // variant's plant and config equal the block's first.
  const std::size_t blocks = std::min(
      rows.size(), static_cast<std::size_t>(exec::threadCount()));
  exec::parallelFor(
      blocks,
      [&](std::size_t block) {
        const std::size_t begin = block * rows.size() / blocks;
        const std::size_t end = (block + 1) * rows.size() / blocks;
        std::vector<scenario::ScenarioSetup> setups;
        std::vector<scenario::Policy*> policies;
        for (std::size_t idx = begin; idx < end; ++idx) {
          const int ia = static_cast<int>(idx) / p.axisB;
          const int ib = static_cast<int>(idx) % p.axisB;
          scenario::ScenarioSpec spec = base;
          spec.knobA = knobAt(range.aLo, range.aHi, ia, p.axisA);
          spec.knobB = knobAt(range.bLo, range.bHi, ib, p.axisB);
          rows[idx].knobA = spec.knobA;
          rows[idx].knobB = spec.knobB;
          setups.push_back(scenario::makeScenario(spec));
          policies.push_back(setups.back().policy.get());
        }
        std::vector<scenario::ScenarioResult> results = scenario::runScenarios(
            *setups.front().plant, policies, setups.front().config);
        for (std::size_t idx = begin; idx < end; ++idx) {
          rows[idx].result = std::move(results[idx - begin]);
        }
      },
      1);
  int okCount = 0;
  int best = -1;  // lowest-energy ok variant; first index wins ties
  for (int i = 0; i < variants; ++i) {
    if (!rows[static_cast<std::size_t>(i)].result.ok) continue;
    ++okCount;
    if (best < 0 || rows[static_cast<std::size_t>(i)].result.energyJ <
                        rows[static_cast<std::size_t>(best)].result.energyJ) {
      best = i;
    }
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
  JsonValue rowsJson = JsonValue::array();
  for (const Row& row : rows) {
    JsonValue o = JsonValue::object();
    o.set("knob_a", row.knobA);
    o.set("knob_b", row.knobB);
    o.set("summary", scenarioSummaryJson(row.result));
    rowsJson.push(std::move(o));
  }
  data.set("rows", std::move(rowsJson));
  return data;
}

JsonValue dispatch(const Request& request) {
  switch (request.kind) {
    case RequestKind::Figure1:
      return evalFigure1(std::get<Fig1Params>(request.params));
    case RequestKind::Figure2:
      return evalFigure2(std::get<Fig2Params>(request.params));
    case RequestKind::Figure34:
      return evalFigure34(std::get<Fig34Params>(request.params));
    case RequestKind::Figure5:
      return evalFigure5(std::get<Fig5Params>(request.params));
    case RequestKind::Table2:
      return evalTable2(std::get<Table2Params>(request.params));
    case RequestKind::DesignPoint:
      return evalDesignPoint(std::get<DesignPointParams>(request.params));
    case RequestKind::DesignGrid:
      return evalDesignGrid(std::get<DesignGridParams>(request.params));
    case RequestKind::DesignOptimum:
      return evalDesignOptimum(std::get<DesignOptimumParams>(request.params));
    case RequestKind::Repeater:
      return evalRepeater(std::get<RepeaterParams>(request.params));
    case RequestKind::Wire:
      return evalWire(std::get<WireParams>(request.params));
    case RequestKind::GridSolve:
      return evalGridSolve(std::get<GridSolveParams>(request.params));
    case RequestKind::NodeSummary:
      return evalNodeSummary(std::get<NodeSummaryParams>(request.params));
    case RequestKind::Sta:
      return evalSta(std::get<StaParams>(request.params));
    case RequestKind::Scenario:
      return evalScenario(std::get<ScenarioParams>(request.params));
    case RequestKind::ScenarioSweep:
      return evalScenarioSweep(std::get<ScenarioSweepParams>(request.params));
    case RequestKind::Stats:
      break;  // handled before dispatch: live data, not a pure function
  }
  throw std::logic_error("evaluate: unhandled kind");
}

/// Whether `v` holds a non-finite number (which would print as null); if
/// so, prepends its path below `v` to `path`, as in "points[0].pdyn_norm".
bool findNonFinite(const JsonValue& v, std::string& path) {
  auto prepend = [&path](std::string step) {
    if (!path.empty() && path.front() != '[') step.push_back('.');
    path.insert(0, step);
  };
  if (v.isNumber()) return !std::isfinite(v.asNumber());
  if (v.isArray()) {
    for (std::size_t i = 0; i < v.items().size(); ++i) {
      if (findNonFinite(v.items()[i], path)) {
        std::string index(1, '[');
        index += std::to_string(i);
        index.push_back(']');
        prepend(std::move(index));
        return true;
      }
    }
  } else if (v.isObject()) {
    for (const auto& [name, member] : v.members()) {
      if (findNonFinite(member, path)) {
        prepend(name);
        return true;
      }
    }
  }
  return false;
}

/// An ok payload answers with finite numbers only: where the model has no
/// finite answer, the request answers error and names the field.
const JsonValue& requireFinite(const JsonValue& data, RequestKind kind) {
  std::string path;
  if (findNonFinite(data, path)) {
    throw std::runtime_error(std::string(kindName(kind)) +
                             ": the model gives no finite " + path);
  }
  return data;
}

/// The one non-pure kind: a live snapshot of the process's own metrics.
/// The service bypasses the cache for it (identical keys do NOT imply
/// identical payloads here), and golden traces exclude it.
std::string evalStats(const StatsParams& p) {
  std::ostringstream os;
  obs::exportStatsJson(os, p.delta);
  return os.str();
}

}  // namespace

Outcome evaluate(const Request& request) {
  NANO_OBS_TIMER(std::string("svc/latency/") + kindName(request.kind));
  // Synchronous eval span on whatever thread runs the evaluation; the
  // context was installed by the service handler (or is empty for direct
  // callers), so nested exec regions inherit the request's identity.
  const obs::TraceSpan span("svc", kindName(request.kind),
                            obs::currentTraceContext());
  Outcome outcome;
  try {
    outcome.status = ResponseStatus::Ok;
    outcome.data = request.kind == RequestKind::Stats
                       ? evalStats(std::get<StatsParams>(request.params))
                       : requireFinite(dispatch(request), request.kind)
                             .write();
  } catch (const std::exception& e) {
    NANO_OBS_COUNT("svc/errors", 1);
    outcome.status = ResponseStatus::Error;
    outcome.data.clear();
    outcome.error = e.what();
  }
  return outcome;
}

}  // namespace nano::svc
