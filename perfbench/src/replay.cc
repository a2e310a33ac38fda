// Traced in-process replays of each workload's seeded inputs, one
// operation at a time. Every span wraps one call into a public function of
// the program; the counters come from the program's own obs registry.
// Observability is on in every replay, as in the deployed nanod, except
// the obs-off pass that prices it.
#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>

#include "circuit/generator.h"
#include "circuit/netlist_soa.h"
#include "core/design_space.h"
#include "core/experiments.h"
#include "interconnect/repeater.h"
#include "interconnect/wire.h"
#include "obs/metrics.h"
#include "power/power_model.h"
#include "powergrid/grid_model.h"
#include "scenario/scenario.h"
#include "sta/sta.h"
#include "stats.h"
#include "svc/cache.h"
#include "svc/eval.h"
#include "svc/request.h"
#include "svc/scheduler.h"
#include "svc/server.h"
#include "tech/itrs.h"
#include "trace.h"
#include "util/rng.h"
#include "util/units.h"
#include "workloads.h"

namespace perfbench {

using namespace nano;

namespace {

constexpr std::size_t kHotReplayOps = 10000;
constexpr std::size_t kSessionReplayOps = 4000;
constexpr std::size_t kColdReplayOps = 240;

/// Saves and restores the process-wide obs switch.
class ObsScope {
 public:
  explicit ObsScope(bool on) : was_(obs::enabled()) { obs::setEnabled(on); }
  ~ObsScope() { obs::setEnabled(was_); }
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  bool was_;
};

using Counters = std::map<std::string, std::int64_t>;

Counters counterSnapshot() {
  Counters out;
  for (const auto& row : obs::MetricsRegistry::instance().counters()) {
    out[row.name] = row.value;
  }
  return out;
}

/// after - before, summed over every counter whose name starts with
/// `prefix` (an exact name is its own prefix).
double delta(const Counters& before, const Counters& after,
             const std::string& prefix) {
  double sum = 0.0;
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    const auto b = before.find(it->first);
    sum += static_cast<double>(it->second - (b == before.end() ? 0 : b->second));
  }
  return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// calls / self_us / share of every span but the per-operation root, and
/// the summed share of those spans (the operation chain's coverage).
double addSpanMetrics(const Tracer& tracer, std::int64_t wallNs, LayerValues& out) {
  double chain = 0.0;
  for (const auto& [name, t] : selfTimes(tracer)) {
    if (name == "op") continue;
    const double share = static_cast<double>(t.selfNs) / static_cast<double>(wallNs);
    out[name + ".calls"] = static_cast<double>(t.calls);
    out[name + ".self_us"] = static_cast<double>(t.selfNs) * 1e-3 / static_cast<double>(t.calls);
    out[name + ".share"] = share;
    chain += share;
  }
  return chain;
}

// ----------------------------------------------------------- serving chain

struct ServingOp {
  std::string line;
  std::string id;
  const RequestSpec* spec;
  std::string_view expected;  ///< expectedSuffix, or empty: id/kind/status only
};

/// A standalone Scheduler whose handler hands back the response the chain
/// already built, so a round trip prices queueing and hand-off alone.
struct SchedulerProbe {
  const svc::Response* current = nullptr;
  std::int64_t handlerNs = 0;  ///< handler thread; read after the future
  svc::Scheduler scheduler{[this](const svc::Request&) {
    const std::int64_t t0 = nowNs();
    svc::Response r = *current;
    handlerNs += nowNs() - t0;
    return r;
  }};
};

/// One serving-chain operation: parse -> key -> cache (evaluate on a miss)
/// -> serialize -> scheduler round trip. Returns its wall time; adds the
/// round trip minus the handler's own time to `schedulerWaitNs`.
std::int64_t serveOne(const ServingOp& op, std::uint32_t i, svc::ResultCache& cache,
                      SchedulerProbe& probe, Tracer* tracer, Tally& tally,
                      std::int64_t& schedulerWaitNs) {
  const std::int64_t start = nowNs();
  bool parsed = false;
  std::string wire;
  {
    const ScopedSpan root(tracer, "op", -1, i);
    svc::Request request;
    std::string error;
    {
      const ScopedSpan s(tracer, "svc.parse", root.index(), i);
      parsed = svc::parseRequest(op.line, request, error);
    }
    std::string key;
    std::uint64_t hash = 0;
    {
      const ScopedSpan s(tracer, "svc.key", root.index(), i);
      key = request.canonicalKey();
      hash = request.contentHash();
    }
    if (hash != svc::fnv1a64(key)) parsed = false;
    svc::Outcome outcome;
    {
      const ScopedSpan s(tracer, "svc.cache", root.index(), i);
      const std::int32_t parent = s.index();
      outcome = cache.getOrCompute(key, [&] {
        const ScopedSpan e(tracer, "svc.eval", parent, i);
        return svc::evaluate(request);
      });
    }
    svc::Response response;
    {
      const ScopedSpan s(tracer, "svc.serialize", root.index(), i);
      response = svc::makeResponse(request, outcome);
      wire = response.toJsonLine();
    }
    {
      const ScopedSpan s(tracer, "svc.scheduler", root.index(), i);
      probe.current = &response;
      const std::int64_t handlerBefore = probe.handlerNs;
      const std::int64_t t0 = nowNs();
      const svc::Response back = probe.scheduler.submit(std::move(request)).get();
      schedulerWaitNs += nowNs() - t0 - (probe.handlerNs - handlerBefore);
      if (back.id != op.id) parsed = false;
    }
  }
  const std::int64_t wall = nowNs() - start;
  tally.add(parsed ? checkResponse(true, wire, op.id, op.spec->kind, op.expected)
                   : Verdict::Malformed,
            wire);
  return wall;
}

/// ABBA order of comparison runs: pair p runs A first when p is even, so a
/// slow drift of the host adds to both sides alike.
bool aFirst(std::size_t pair) { return pair % 2 == 0; }

/// The hot set's outcomes, so a cache can start warm without evaluating
/// again.
struct Prefill {
  std::vector<std::string> keys;
  std::vector<svc::Outcome> outcomes;

  explicit Prefill(const std::vector<RequestSpec>& specs) {
    for (const RequestSpec& spec : specs) {
      svc::Request request;
      std::string error;
      svc::parseRequest(spec.line("p"), request, error);
      keys.push_back(request.canonicalKey());
      outcomes.push_back(svc::evaluate(request));
    }
  }
  void into(svc::ResultCache& cache) const {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      cache.getOrCompute(keys[i], [&] { return outcomes[i]; });
    }
  }
};

const std::size_t kCacheEntries = svc::ServiceOptions{}.cacheEntries;

// ---------------------------------------------------------- session replay

/// Session::consumeLine -> sink round trips through a real Service whose
/// cache already holds the hot set.
std::vector<double> sessionReplayUs(const std::vector<ServingOp>& ops,
                                    const Prefill& prefill, Tracer* tracer,
                                    Tally& tally) {
  svc::Service service;
  prefill.into(service.cache());
  std::mutex mutex;
  std::condition_variable cv;
  std::string received;
  bool ready = false;
  svc::Session session(
      service, {},
      [&](std::string&& line) {
        const std::lock_guard<std::mutex> lock(mutex);
        received = std::move(line);
        ready = true;
        cv.notify_one();
      },
      service.newSessionId());
  std::vector<double> us;
  us.reserve(ops.size());
  std::string line;
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    const std::int64_t t0 = nowNs();
    {
      const ScopedSpan s(tracer, "svc.session", -1, i);
      session.consumeLine(ops[i].line);
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return ready; });
      ready = false;
      line = std::move(received);
    }
    us.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
    while (!line.empty() && line.back() == '\n') line.pop_back();
    tally.add(checkResponse(true, line, ops[i].id, ops[i].spec->kind, ops[i].expected),
              line);
  }
  session.finish();
  return us;
}

// ----------------------------------------------------- engine breakdown

core::DesignSpaceOptions gridOptions(const svc::DesignGridParams& p) {
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

scenario::ScenarioSpec scenarioSpec(const svc::ScenarioParams& p) {
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

/// The engine calls svc::evaluate makes for `request`, with the same
/// params, each under its layer's span; the payload rendering is skipped.
void breakdownOne(const svc::Request& request, Tracer& tracer, std::uint32_t op) {
  const ScopedSpan root(&tracer, "op", -1, op);
  const std::int32_t parent = root.index();
  // One layer span at a time: `next` ends the open span before the next
  // one starts, so sibling spans never overlap.
  std::unique_ptr<ScopedSpan> open;
  auto next = [&](const char* name) {
    open.reset();
    open = std::make_unique<ScopedSpan>(&tracer, name, parent, op);
  };
  auto span = [&](const char* name) {
    return std::make_unique<ScopedSpan>(&tracer, name, parent, op);
  };
  switch (request.kind) {
    case svc::RequestKind::Sta: {
      const auto& p = std::get<svc::StaParams>(request.params);
      next("circuit.generate");
      const circuit::Library library(tech::nodeByFeature(p.nodeNm));
      util::Rng rng(static_cast<std::uint64_t>(p.seed));
      const circuit::Netlist netlist = circuit::pipelinedLogic(
          library, circuit::scaledConfig(p.gates), rng, p.blocks);
      next("circuit.mirror");
      const circuit::NetlistSoA soa(netlist, {.keepCells = false});
      next("sta.analyze");
      const sta::TimingResult r = sta::analyze(soa);
      open.reset();
      (void)sta::fractionOfPathsFasterThan(r, netlist, 0.5);
      break;
    }
    case svc::RequestKind::DesignGrid: {
      const auto s = span("core.design");
      (void)core::exploreDesignSpace(gridOptions(std::get<svc::DesignGridParams>(request.params)));
      break;
    }
    case svc::RequestKind::DesignOptimum: {
      const auto& p = std::get<svc::DesignOptimumParams>(request.params);
      const auto s = span("core.design");
      (void)core::optimalPoint(gridOptions(p.grid), p.delayTarget, p.maxStaticFraction);
      break;
    }
    case svc::RequestKind::Figure34: {
      const auto& p = std::get<svc::Fig34Params>(request.params);
      const auto s = span("core.figure");
      (void)core::computeFigure34(p.nodeNm, p.points, p.activity, p.vddMin);
      break;
    }
    case svc::RequestKind::GridSolve: {
      const auto& p = std::get<svc::GridSolveParams>(request.params);
      const auto s = span("powergrid.solve");
      const tech::TechNode& node = tech::nodeByFeature(p.nodeNm);
      const double pitch = p.padPitchUm > 0.0 ? p.padPitchUm * units::um : node.minBumpPitch;
      powergrid::GridConfig config =
          powergrid::gridConfigForNode(node, p.widthMultiple, pitch, p.hotspot);
      config.subdivisions = p.subdivisions;
      powergrid::GridSolverOptions options;
      if (p.preconditioner == "jacobi") {
        options.preconditioner = powergrid::PreconditionerKind::Jacobi;
      } else if (p.preconditioner == "multigrid") {
        options.preconditioner = powergrid::PreconditionerKind::Multigrid;
      }
      (void)powergrid::solveGrid(config, options);
      break;
    }
    case svc::RequestKind::Repeater: {
      const auto& p = std::get<svc::RepeaterParams>(request.params);
      const auto s = span("interconnect.repeater");
      const tech::TechNode& node = tech::nodeByFeature(p.nodeNm);
      const auto driver = interconnect::RepeaterDriver::fromNode(node);
      const auto rc = interconnect::computeWireRc(
          interconnect::topLevelWire(node, p.widthMultiple));
      (void)interconnect::optimalRepeatersClosedForm(driver, rc);
      (void)interconnect::optimalRepeatersNumeric(driver, rc);
      break;
    }
    case svc::RequestKind::Scenario: {
      next("scenario.setup");
      scenario::ScenarioSetup setup = scenario::makeScenario(
          scenarioSpec(std::get<svc::ScenarioParams>(request.params)));
      next("scenario.run");
      (void)scenario::runScenario(*setup.plant, *setup.policy, setup.config);
      open.reset();
      break;
    }
    case svc::RequestKind::ScenarioSweep: {
      // Serial here as in nanod at one exec lane; knobs sampled at the
      // interior points the sweep uses.
      const auto& p = std::get<svc::ScenarioSweepParams>(request.params);
      const std::string policy = p.base.policy.empty()
                                     ? scenario::defaultPolicyFor(p.base.scenario)
                                     : p.base.policy;
      const scenario::KnobRange range = scenario::knobRangeFor(policy);
      auto knobAt = [](double lo, double hi, int i, int n) {
        return lo + (hi - lo) * (static_cast<double>(i) + 0.5) / static_cast<double>(n);
      };
      scenario::ScenarioSpec base = scenarioSpec(p.base);
      base.policy = policy;
      {
        const auto s = span("scenario.setup");
        (void)scenario::makeScenario(base);
      }
      for (int idx = 0; idx < p.axisA * p.axisB; ++idx) {
        scenario::ScenarioSpec spec = base;
        spec.knobA = knobAt(range.aLo, range.aHi, idx / p.axisB, p.axisA);
        spec.knobB = knobAt(range.bLo, range.bHi, idx % p.axisB, p.axisB);
        next("scenario.setup");
        scenario::ScenarioSetup setup = scenario::makeScenario(spec);
        next("scenario.run");
        (void)scenario::runScenario(*setup.plant, *setup.policy, setup.config);
        open.reset();
      }
      break;
    }
    default:
      break;
  }
}

// ------------------------------------------------------------ flow chain

/// runFlow's stage chain, called stage by stage, with an object-API
/// sta::analyze before the first stage and after each one. Returns the
/// final total power; tallies timing after every stage.
double flowChain(const circuit::Netlist& netlist, const circuit::Library& library,
                 const opt::FlowOptions& options, Tracer* tracer, std::uint32_t op,
                 Tally& tally) {
  const ScopedSpan root(tracer, "op", -1, op);
  const std::int32_t parent = root.index();
  sta::TimingResult before;
  {
    const ScopedSpan s(tracer, "sta.analyze_netlist", parent, op);
    before = sta::analyze(netlist, options.clockPeriod);
  }
  const double clock = before.clockPeriod;
  const double freq = 1.0 / clock;
  {
    const ScopedSpan s(tracer, "power.compute", parent, op);
    (void)power::computePower(netlist, freq, options.piActivity);
  }
  circuit::Netlist current = netlist;
  double workingClock = clock;
  double finalPower = 0.0;
  bool met = before.meetsTiming();
  for (opt::FlowStage stage : options.stages) {
    switch (stage) {
      case opt::FlowStage::MultiVdd: {
        opt::CvsOptions co;
        co.clockPeriod = workingClock;
        co.piActivity = options.piActivity;
        const ScopedSpan s(tracer, "opt.cvs", parent, op);
        opt::CvsResult r = opt::runCvs(current, library, co, freq);
        current = std::move(r.netlist);
        workingClock = r.timingAfter.clockPeriod;
        finalPower = r.powerAfter.total();
        met = met && r.timingAfter.meetsTiming();
        break;
      }
      case opt::FlowStage::DualVth: {
        opt::DualVthOptions dv;
        dv.clockPeriod = workingClock;
        dv.piActivity = options.piActivity;
        const ScopedSpan s(tracer, "opt.dual_vth", parent, op);
        opt::DualVthResult r = opt::runDualVth(current, library, dv, freq);
        current = std::move(r.netlist);
        finalPower = r.powerAfter.total();
        met = met && r.timingAfter.meetsTiming();
        break;
      }
      case opt::FlowStage::Downsize: {
        opt::SizingOptions so;
        so.clockPeriod = workingClock;
        so.piActivity = options.piActivity;
        so.continuousSizes = options.continuousSizes;
        const ScopedSpan s(tracer, "opt.downsize", parent, op);
        opt::SizingResult r = opt::downsizeForPower(current, library, so, freq);
        current = std::move(r.netlist);
        finalPower = r.powerAfter.total();
        met = met && r.timingAfter.meetsTiming();
        break;
      }
    }
    const ScopedSpan s(tracer, "sta.analyze_netlist", parent, op);
    met = met && sta::analyze(current, workingClock).meetsTiming();
  }
  tally.add(met ? Verdict::Ok : Verdict::NotOk, "flow chain " + std::to_string(op));
  return finalPower;
}

void addServingMetrics(const E2eRun& e2e, LayerValues& out) {
  const double hits = exposed(e2e, "svc/cache_hits");
  const double misses = exposed(e2e, "svc/cache_misses");
  out["svc.cache.hit_ratio"] = ratio(hits, hits + misses);
  out["svc.cache.evictions"] = exposed(e2e, "svc/cache_evictions");
  out["net.bytes_out_per_op"] =
      ratio(exposed(e2e, "net/bytes_out"), exposed(e2e, "net/lines_in"));
}

}  // namespace

void replaySvcHot(const Options& options, const std::vector<RequestSpec>& hot,
                  const std::vector<std::string>& expected, const E2eRun& e2e,
                  LayerValues& out, Tally& tally, std::string& spanCsv) {
  const Prefill prefill(hot);
  std::vector<HotDraws> draws;
  for (int c = 0; c < 4; ++c) draws.emplace_back(options.seed, c, hot.size());
  std::vector<ServingOp> ops;
  for (std::size_t i = 0; i < kHotReplayOps; ++i) {
    const int c = static_cast<int>(i % 4);
    const std::size_t key = draws[static_cast<std::size_t>(c)].next();
    const std::string id = requestId('c', static_cast<std::size_t>(c), i / 4);
    ops.push_back({hot[key].line(id), id, &hot[key], expected[key]});
  }
  svc::ResultCache cache(kCacheEntries);
  prefill.into(cache);
  SchedulerProbe probe;
  Tracer tracer("svc_hot.serving");
  tracer.reserve(ops.size() * 7);

  // Each comparison alternates blocks of operations, ABBA, over the whole
  // replay: an obs-off block against an obs-on block (untraced), then an
  // untraced block against a traced one (obs on). The traced blocks give
  // the spans; their summed wall time is the replay wall of the shares.
  // Observability is priced by per-request medians: the scheduler hand-off
  // dominates each request and its wake-ups vary far more than obs costs.
  constexpr std::size_t kBlock = 100;
  std::int64_t untracedNs = 0, tracedNs = 0, waitNs = 0, unused = 0;
  std::vector<double> offOpNs, onOpNs;
  for (std::size_t b = 0; b * kBlock < ops.size(); ++b) {
    for (int side = 0; side < 2; ++side) {
      const bool obsOn = (side == 0) != aFirst(b);
      const ObsScope obs(obsOn);
      for (std::size_t i = b * kBlock; i < std::min(ops.size(), (b + 1) * kBlock); ++i) {
        (obsOn ? onOpNs : offOpNs)
            .push_back(static_cast<double>(serveOne(ops[i], static_cast<std::uint32_t>(i),
                                                    cache, probe, nullptr, tally,
                                                    obsOn ? waitNs : unused)));
      }
    }
  }
  {
    const ObsScope obs(true);
    for (std::size_t b = 0; b * kBlock < ops.size(); ++b) {
      for (int side = 0; side < 2; ++side) {
        const bool traced = (side == 0) != aFirst(b);
        std::int64_t& sum = traced ? tracedNs : untracedNs;
        for (std::size_t i = b * kBlock; i < std::min(ops.size(), (b + 1) * kBlock); ++i) {
          sum += serveOne(ops[i], static_cast<std::uint32_t>(i), cache, probe,
                          traced ? &tracer : nullptr, tally, unused);
        }
      }
    }
  }
  const double n = static_cast<double>(ops.size());
  out["obs.cost_us"] = (median(onOpNs) - median(offOpNs)) * 1e-3;
  out["svc.scheduler.wait_us"] = static_cast<double>(waitNs) * 1e-3 / n;
  out["trace.overhead_share"] =
      static_cast<double>(tracedNs) / static_cast<double>(untracedNs) - 1.0;
  out["trace.chain_share"] = addSpanMetrics(tracer, tracedNs, out);
  writeCsv(tracer, spanCsv);

  const ObsScope obs(true);
  Tracer sessionTracer("svc_hot.session");
  const std::vector<ServingOp> sessionOps(
      ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(kSessionReplayOps));
  const std::int64_t t0 = nowNs();
  std::vector<double> sessionUs = sessionReplayUs(sessionOps, prefill, &sessionTracer, tally);
  addSpanMetrics(sessionTracer, nowNs() - t0, out);
  writeCsv(sessionTracer, spanCsv);
  out["svc.session.p50_us"] = percentile(sessionUs, 0.5);
  std::vector<double> latency = e2e.latencyMs;
  out["net.overhead_us"] = percentile(latency, 0.5) * 1e3 - out["svc.session.p50_us"];
  addServingMetrics(e2e, out);
}

void replayEngineCold(const std::vector<RequestSpec>& stream, const E2eRun& e2e,
                      LayerValues& out, Tally& tally, std::string& spanCsv) {
  const ObsScope obs(true);
  for (const RequestSpec& w : coldWarmups()) (void)referenceLine(w, "w");
  std::vector<ServingOp> ops;
  for (std::size_t i = 0; i < kColdReplayOps && i < stream.size(); ++i) {
    const std::string id = requestId('e', i);
    ops.push_back({stream[i].line(id), id, &stream[i], {}});
  }
  // Every operation runs twice, untraced and traced (ABBA per operation),
  // each against its own result cache so both are misses; the grid-model
  // cache starts empty as it does in a fresh nanod.
  powergrid::GridModel::clearCache();
  svc::ResultCache untracedCache(kCacheEntries), tracedCache(kCacheEntries);
  SchedulerProbe probe;
  Tracer tracer("engine_cold.serving");
  tracer.reserve(ops.size() * 8);
  std::int64_t untracedNs = 0, tracedNs = 0, waitNs = 0, unused = 0;
  const Counters before = counterSnapshot();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (int side = 0; side < 2; ++side) {
      const auto op = static_cast<std::uint32_t>(i);
      if ((side == 0) == aFirst(i)) {
        untracedNs += serveOne(ops[i], op, untracedCache, probe, nullptr, tally, waitNs);
      } else {
        tracedNs += serveOne(ops[i], op, tracedCache, probe, &tracer, tally, unused);
      }
    }
  }
  const Counters after = counterSnapshot();
  const double n = static_cast<double>(ops.size());
  out["svc.scheduler.wait_us"] = static_cast<double>(waitNs) * 1e-3 / n;
  out["trace.overhead_share"] =
      static_cast<double>(tracedNs) / static_cast<double>(untracedNs) - 1.0;
  out["trace.chain_share"] = addSpanMetrics(tracer, tracedNs, out);
  writeCsv(tracer, spanCsv);

  const double builds = delta(before, after, "scenario/plant_builds");
  const double reuses = delta(before, after, "scenario/plant_reuses");
  out["scenario.plant_reuse_ratio"] = ratio(reuses, builds + reuses);
  out["kernel.batches_per_op"] = delta(before, after, "kernel/batch/") / (2 * n);
  out["powergrid.cg_iterations_per_solve"] =
      ratio(delta(before, after, "powergrid/cg_iterations"),
            delta(before, after, "powergrid/cg_solves"));

  Tracer breakdown("engine_cold.breakdown");
  powergrid::GridModel::clearCache();
  const std::int64_t t0 = nowNs();
  for (std::uint32_t i = 0; i < ops.size(); ++i) {
    svc::Request request;
    std::string error;
    if (svc::parseRequest(ops[i].line, request, error)) breakdownOne(request, breakdown, i);
  }
  addSpanMetrics(breakdown, nowNs() - t0, out);
  writeCsv(breakdown, spanCsv);
  addServingMetrics(e2e, out);
}

void replayOptFlow(const FlowInputs& inputs, LayerValues& out, Tally& tally,
                   std::string& spanCsv) {
  const ObsScope obs(true);
  // Counters per flow come from runFlow itself (the chain adds analyses),
  // and so does the final power the chain must reproduce.
  const std::size_t netlists = inputs.netlists.size();
  std::vector<double> runFlowPower;
  const Counters before = counterSnapshot();
  for (std::size_t i = 0; i < netlists; ++i) {
    for (int order = 0; order < kFlowOrders; ++order) {
      const opt::FlowResult r =
          opt::runFlow(inputs.netlists[i], *inputs.library, flowOptions(order));
      tally.add(flowPasses(r) ? Verdict::Ok : Verdict::NotOk,
                "runFlow " + std::to_string(i) + " order " + std::to_string(order));
      runFlowPower.push_back(r.stages.empty() ? 0.0 : r.stages.back().power.total());
    }
  }
  const Counters after = counterSnapshot();
  const double flows = static_cast<double>(netlists * kFlowOrders);
  const double cvsTrials = delta(before, after, "opt/cvs_trials");
  out["opt.cvs.trials_per_flow"] = cvsTrials / flows;
  out["opt.cvs.accept_ratio"] = ratio(delta(before, after, "opt/cvs_accepted"), cvsTrials);
  out["opt.dual_vth.accept_ratio"] =
      ratio(delta(before, after, "opt/dualvth_accepted"),
            delta(before, after, "opt/dualvth_trials"));
  out["sta.incremental.nodes_per_trial"] =
      ratio(delta(before, after, "sta/incremental_nodes_repropagated"),
            delta(before, after, "sta/incremental_trials"));
  out["circuit.mirror_builds_per_flow"] = delta(before, after, "circuit/soa_builds") / flows;

  // Every flow runs twice, untraced and traced (ABBA per flow).
  Tracer tracer("opt.chain");
  std::int64_t untracedNs = 0, tracedNs = 0;
  for (std::size_t i = 0; i < netlists; ++i) {
    for (int order = 0; order < kFlowOrders; ++order) {
      const std::size_t flow = i * kFlowOrders + static_cast<std::size_t>(order);
      for (int side = 0; side < 2; ++side) {
        const bool traced = (side == 0) != aFirst(flow);
        const std::int64_t t0 = nowNs();
        const double power =
            flowChain(inputs.netlists[i], *inputs.library, flowOptions(order),
                      traced ? &tracer : nullptr, static_cast<std::uint32_t>(i), tally);
        (traced ? tracedNs : untracedNs) += nowNs() - t0;
        tally.add(power == runFlowPower[flow] ? Verdict::Ok : Verdict::PayloadMismatch,
                  "flow chain power " + std::to_string(flow));
      }
    }
  }
  // trace.overhead_share stays the serving chain's; trace.chain_share is
  // the smaller of the two chains' coverage, so either can fail the run.
  const double chain = addSpanMetrics(tracer, tracedNs, out);
  const auto it = out.find("trace.chain_share");
  out["trace.chain_share"] = it == out.end() ? chain : std::min(it->second, chain);
  writeCsv(tracer, spanCsv);
}

std::string chainShareProblem(const LayerValues& layers) {
  const auto it = layers.find("trace.chain_share");
  if (it == layers.end()) return "trace.chain_share was not measured";
  if (it->second >= kMinChainShare) return {};
  return "trace.chain_share " + std::to_string(it->second) +
         ": the spans cover less than " + std::to_string(kMinChainShare) +
         " of an operation chain";
}

}  // namespace perfbench
