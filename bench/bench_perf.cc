// Kernel timing benchmarks (google-benchmark): the computational cores a
// downstream user would stress — STA, the CVS optimizer, the power-grid CG
// solve, the transient simulator, and the device-model Vth solve.
#include <benchmark/benchmark.h>

#include <iostream>

#include "circuit/generator.h"
#include "circuit/netlist_soa.h"
#include "core/design_space.h"
#include "core/experiments.h"
#include "device/mosfet.h"
#include "exec/exec.h"
#include "kernel/dispatch.h"
#include "obs/obs.h"
#include "opt/cvs.h"
#include "opt/dual_vth.h"
#include "opt/sizing.h"
#include "powergrid/grid_model.h"
#include "scenario/scenario.h"
#include "sim/circuit_sim.h"
#include "sta/incremental.h"
#include "sta/sta.h"
#include "svc/eval.h"
#include "svc/json.h"
#include "svc/server.h"

namespace {

using namespace nano;

const circuit::Library& lib100() {
  static const circuit::Library lib(tech::nodeByFeature(100));
  return lib;
}

circuit::Netlist makeNetlist(int gates) {
  util::Rng rng(1);
  circuit::GeneratorConfig cfg;
  cfg.gates = gates;
  cfg.outputs = gates / 16;
  return circuit::pipelinedLogic(lib100(), cfg, rng, 8);
}

// Scale-profile netlist (sqrt I/O, log2 depth): the substrate for the
// 100k/1M benches, matching the scale smoke test's construction.
circuit::Netlist makeScaledNetlist(int gates) {
  util::Rng rng(1);
  return circuit::pipelinedLogic(lib100(), circuit::scaledConfig(gates), rng,
                                 8);
}

void BM_VthSolve(benchmark::State& state) {
  const auto& node = tech::nodeByFeature(35);
  for (auto _ : state) {
    benchmark::DoNotOptimize(device::solveVthForIon(node, node.ionTarget));
  }
  state.SetItemsProcessed(state.iterations());  // Vth solves
}
BENCHMARK(BM_VthSolve);

void BM_Sta(benchmark::State& state) {
  const circuit::Netlist nl = makeNetlist(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sta::analyze(nl));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sta)->Arg(1000)->Arg(4000)->Arg(16000);

// The flat SoA timing core at scale: one full level-parallel STA pass per
// iteration over a prebuilt mirror (items = gates/s). bytes_per_gate is
// the arena footprint of the reusable engine — the memory-per-gate
// acceptance number for the million-gate core.
void BM_StaFull(benchmark::State& state) {
  const circuit::Netlist nl =
      makeScaledNetlist(static_cast<int>(state.range(0)));
  const circuit::NetlistSoA soa(nl, {.keepCells = false});
  sta::Sta engine(soa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.analyze().worstSlack);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["levels"] = static_cast<double>(soa.levelCount());
  state.counters["bytes_per_gate"] =
      static_cast<double>(engine.arenaBytes() + soa.arenaBytes()) /
      static_cast<double>(nl.gateCount());
  state.counters["threads"] = exec::threadCount();
}
BENCHMARK(BM_StaFull)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_DualVth(benchmark::State& state) {
  const circuit::Netlist nl = makeNetlist(static_cast<int>(state.range(0)));
  double fractionHigh = 0.0;
  for (auto _ : state) {
    opt::DualVthResult r = opt::runDualVth(nl, lib100());
    // DoNotOptimize on the result, not on the double: GCC's "+m,r" asm
    // constraint can hand a double back garbled.
    benchmark::DoNotOptimize(r);
    fractionHigh = r.fractionHighVth;
  }
  // gates examined per second; fraction converted for PR-over-PR sanity
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["fraction_high_vth"] = fractionHigh;
}
BENCHMARK(BM_DualVth)->Arg(500)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_Sizing(benchmark::State& state) {
  const circuit::Netlist nl = makeNetlist(static_cast<int>(state.range(0)));
  int resized = 0;
  for (auto _ : state) {
    const opt::SizingResult r = opt::downsizeForPower(nl, lib100());
    resized = r.gatesResized;
    benchmark::DoNotOptimize(resized);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["gates_resized"] = resized;
}
BENCHMARK(BM_Sizing)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

// Clustered voltage scaling on the BM_DualVth netlists. Each candidate it
// tries still converts a copy of the netlist and times it in full, so the
// NetlistSoA builds per call (`mirrors`, counted in one extra run outside
// the timed loop) grow with the number of trials.
void BM_Cvs(benchmark::State& state) {
  const circuit::Netlist nl = makeNetlist(static_cast<int>(state.range(0)));
  double fractionLow = 0.0;
  for (auto _ : state) {
    opt::CvsResult r = opt::runCvs(nl, lib100());
    benchmark::DoNotOptimize(r);
    fractionLow = r.fractionLowVdd;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["fraction_low_vdd"] = fractionLow;

  const obs::Counter& builds =
      obs::MetricsRegistry::instance().counter("circuit/soa_builds");
  const bool wasEnabled = obs::enabled();
  obs::setEnabled(true);
  const std::int64_t builds0 = builds.value();
  opt::runCvs(nl, lib100());
  state.counters["mirrors"] = static_cast<double>(builds.value() - builds0);
  obs::setEnabled(wasEnabled);
}
BENCHMARK(BM_Cvs)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

// The incremental engine alone: one committed swap + one rolled-back swap
// per iteration on a large netlist (items = swaps/s). The repropagated
// counter exposes the O(cone) work that replaces O(gates) full passes.
void BM_IncrementalSta(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  // The 100k/1M points use the scale profile (same substrate as
  // BM_StaFull and the scale smoke); the small points keep the historical
  // fixed-depth netlist so numbers stay comparable across PRs.
  circuit::Netlist nl =
      size >= 100000 ? makeScaledNetlist(size) : makeNetlist(size);
  sta::IncrementalSta inc(nl);
  const auto gates = nl.gateIds();
  util::Rng rng(7);
  for (auto _ : state) {
    const int g = gates[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(gates.size()) - 1))];
    const auto& cell = nl.node(g).cell;
    const circuit::Cell alt = lib100().recorner(
        cell,
        cell.vth == circuit::VthClass::Low ? circuit::VthClass::High
                                           : circuit::VthClass::Low,
        cell.vddDomain);
    inc.apply(g, alt);
    inc.trial(g, lib100().generateCustom(cell.function, cell.drive * 1.5,
                                         cell.vth, cell.vddDomain));
    inc.rollback();
    benchmark::DoNotOptimize(inc.worstSlack());
  }
  state.SetItemsProcessed(state.iterations() * 2);  // swaps
  state.counters["nodes_repropagated_per_swap"] =
      static_cast<double>(inc.nodesRepropagated()) /
      static_cast<double>(2 * state.iterations());
}
BENCHMARK(BM_IncrementalSta)
    ->Arg(4000)
    ->Arg(16000)
    ->Arg(100000)
    ->Arg(1000000);

// Design-space sweep on the nano::exec pool (items = grid points per
// wall-clock second: pool workers do the work, so the calling thread's CPU
// time undercounts it). Compare NANO_EXEC_THREADS=1 against the core count
// for the speedup.
void BM_Sweep(benchmark::State& state) {
  core::DesignSpaceOptions options;
  options.vddSteps = static_cast<int>(state.range(0));
  options.vthSteps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::exploreDesignSpace(options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
  state.counters["threads"] = exec::threadCount();
}
BENCHMARK(BM_Sweep)
    ->Arg(15)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The engines of the design-space requests at node 70, one call each, as
// a cold svc request runs them: the iso-delay optimum over 60 Vdd
// samples, Figures 3-4 at 5 and 15 points (items = points), and one
// operating point. Every call starts from the node's sweep reference.
core::DesignSpaceOptions node70() {
  core::DesignSpaceOptions options;
  options.nodeNm = 70;
  return options;
}

void BM_DesignOptimum(benchmark::State& state) {
  const core::DesignSpaceOptions options = node70();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimalPoint(options, 1.5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DesignOptimum)->Unit(benchmark::kMicrosecond);

void BM_Figure34(benchmark::State& state) {
  const int points = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::computeFigure34(70, points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Figure34)
    ->Arg(5)
    ->Arg(15)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_DesignPoint(benchmark::State& state) {
  const core::DesignSpaceOptions options = node70();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluatePoint(options, 0.6, 0.2));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DesignPoint);

// Power-grid solve at paper scale: subdivisions 8/32/128 on a 10x10-tile
// waffle span ~25k to ~413k unknowns. The second argument selects the CG
// preconditioner (0 = Jacobi, 1 = multigrid V-cycle). Jacobi at 128 is
// omitted: it needs thousands of iterations and only re-demonstrates the
// scaling gap the 32-subdivision pair already quantifies.
void BM_GridSolve(benchmark::State& state) {
  powergrid::GridConfig cfg;
  cfg.railPitch = 160e-6;
  cfg.bumpPitch = 640e-6;
  cfg.railWidth = 2e-6;
  cfg.tilesX = cfg.tilesY = 10;
  cfg.subdivisions = static_cast<int>(state.range(0));
  cfg.hotspotFactor = 4.0;
  cfg.hotspotCellsRail = 1;
  powergrid::GridSolverOptions opt;
  opt.preconditioner = state.range(1) != 0
                           ? powergrid::PreconditionerKind::Multigrid
                           : powergrid::PreconditionerKind::Jacobi;
  // Warm the topology cache (and, for multigrid, the hierarchy) so the
  // timed region is the solve itself — the steady state the sweeps see.
  const powergrid::GridSolution warm = powergrid::solveGrid(cfg, opt);
  std::size_t unknowns = warm.unknowns;
  int cgIterations = warm.cgIterations;
  for (auto _ : state) {
    const powergrid::GridSolution sol = powergrid::solveGrid(cfg, opt);
    unknowns = sol.unknowns;
    cgIterations = sol.cgIterations;
    benchmark::DoNotOptimize(sol.maxDrop);
  }
  // unknowns solved per wall-clock second (the multigrid smoothers run on
  // the exec pool); iteration count tracks solver health
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(unknowns));
  state.counters["unknowns"] = static_cast<double>(unknowns);
  state.counters["cg_iterations"] = static_cast<double>(cgIterations);
  state.counters["mg_levels"] = static_cast<double>(warm.mgLevels);
}
BENCHMARK(BM_GridSolve)
    ->ArgNames({"sub", "mg"})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({128, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---- nano::kernel batch micro-benchmarks (items = elements/s) ----------
// The second argument names the dispatch ISA (0 = scalar reference, 1 =
// AVX2 when the CPU has it). BM_KernelSpmv pins it so before/after JSON
// captures the specialization win, independent of thread count; the
// device rows are plain Mosfet loops and always run the same code.

/// Restores the dispatch ISA that was active when it was built, so a
/// benchmark that forces one leaves a NANO_KERNEL_ISA pin intact for
/// every later row.
struct IsaGuard {
  kernel::Isa saved = kernel::activeIsa();
  ~IsaGuard() { kernel::setActiveIsa(saved); }
};

bool forceIsa(benchmark::State& state) {
  const auto want =
      state.range(1) != 0 ? kernel::Isa::Avx2 : kernel::Isa::Scalar;
  if (kernel::setActiveIsa(want) != want) {
    state.SkipWithError("CPU lacks AVX2");
    return false;
  }
  return true;
}

/// A (Vth, Vdd) sweep batch of `n` points on the 35 nm device, with one
/// withVth() copy of a prepared device per point: the core sweeps make one
/// copy per point and evaluate both Ion and Ioff on it.
struct DeviceBatch {
  std::vector<double> vth, bias;
  std::vector<device::Mosfet> devices;
};

DeviceBatch deviceBatch(std::size_t n) {
  const auto& node = tech::nodeByFeature(35);
  const device::Mosfet base = device::Mosfet::fromNode(node, 0.0, node.vdd);
  DeviceBatch b;
  for (std::size_t i = 0; i < n; ++i) {
    const double k = static_cast<double>(i);
    const double total = static_cast<double>(n);
    b.vth.push_back(-0.05 + 0.35 * k / total);
    b.bias.push_back(0.2 + 0.4 * k / total);
    b.devices.push_back(base.withVth(b.vth.back()));
  }
  return b;
}

// Device Ion over a sweep batch. A plain scalar loop by design
// (libm-bound); the win is the constants the Mosfet constructor hoists
// and the Illinois solve, visible against BM_VthSolve/BM_Sweep history.
void BM_KernelIonBatch(benchmark::State& state) {
  const DeviceBatch b = deviceBatch(static_cast<std::size_t>(state.range(0)));
  std::vector<double> out(b.bias.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = b.devices[i].ionSelfConsistent(b.bias[i], b.bias[i]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_KernelIonBatch)->ArgNames({"n", "isa"})->Args({4096, 0});

void BM_KernelIoffBatch(benchmark::State& state) {
  const DeviceBatch b = deviceBatch(static_cast<std::size_t>(state.range(0)));
  std::vector<double> out(b.bias.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = b.devices[i].ioff(b.bias[i]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_KernelIoffBatch)->ArgNames({"n", "isa"})->Args({4096, 0});

// Baseline for the two rows above: the sweep inner kernel rebuilding a
// Mosfet per point for the delay leg and again for the leakage leg, so
// every constant is derived twice per point.
void BM_KernelSweepInnerLegacy(benchmark::State& state) {
  const auto& node = tech::nodeByFeature(35);
  const DeviceBatch b = deviceBatch(static_cast<std::size_t>(state.range(0)));
  std::vector<double> ion(b.vth.size()), ioff(b.vth.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < b.vth.size(); ++i) {
      ion[i] = device::Mosfet::fromNode(node, b.vth[i], node.vdd)
                   .ionSelfConsistent(b.bias[i], b.bias[i]);
      ioff[i] =
          device::Mosfet::fromNode(node, b.vth[i], node.vdd).ioff(b.bias[i]);
    }
    benchmark::DoNotOptimize(ion.data());
    benchmark::DoNotOptimize(ioff.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(b.vth.size()));
}
BENCHMARK(BM_KernelSweepInnerLegacy)->ArgNames({"n", "isa"})->Args({4096, 0});

// SpMV on the power-grid Laplacian: scalar CSR reference vs the SELL-4
// gather variant, on the same matrix the CG solve iterates.
void BM_KernelSpmv(benchmark::State& state) {
  powergrid::GridConfig cfg;
  cfg.railPitch = 160e-6;
  cfg.bumpPitch = 640e-6;
  cfg.railWidth = 2e-6;
  cfg.tilesX = cfg.tilesY = 10;
  cfg.subdivisions = static_cast<int>(state.range(0));
  const auto model = powergrid::GridModel::forConfig(cfg);
  const powergrid::SparseSpd& a = model->unitLaplacian();
  const std::size_t n = a.size();
  std::vector<double> x(n, 1.0), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0 + 0.001 * static_cast<double>(i % 97);
  }
  const IsaGuard guard;
  if (!forceIsa(state)) return;
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  state.counters["nnz"] = static_cast<double>(a.nonZeros());
}
BENCHMARK(BM_KernelSpmv)
    ->ArgNames({"sub", "isa"})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Unit(benchmark::kMicrosecond);

// Service-layer throughput: a mixed query stream (8x repetition of a
// unique set, like a sweep client re-asking overlapping questions) pushed
// through the full stack — parse-free submit, scheduler batching, cache +
// in-flight dedup, evaluation on the exec pool. Items = requests per
// wall-clock second (the timed thread only waits on futures); the
// hit_rate counter reports the fraction served from cache.
void BM_SvcThroughput(benchmark::State& state) {
  constexpr int kUnique = 64;
  constexpr int kRequests = 512;
  std::vector<svc::Request> mix;
  mix.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    const int u = i % kUnique;
    svc::Request r;
    if (u % 2 == 0) {
      r.kind = svc::RequestKind::DesignPoint;
      svc::DesignPointParams p;
      p.vdd = 0.45 + 0.002 * u;
      r.params = p;
    } else {
      r.kind = svc::RequestKind::Wire;
      svc::WireParams p;
      p.widthMultiple = 1.0 + 0.125 * u;
      r.params = p;
    }
    mix.push_back(std::move(r));
  }

  auto& registry = obs::MetricsRegistry::instance();
  const bool wasEnabled = obs::enabled();
  obs::setEnabled(true);
  const double hits0 = registry.counter("svc/cache_hits").value();
  const double joins0 = registry.counter("svc/dedup_joins").value();
  const double misses0 = registry.counter("svc/cache_misses").value();

  for (auto _ : state) {
    svc::ServiceOptions options;
    options.blockWhenFull = true;
    svc::Service service(options);
    std::vector<std::future<svc::Response>> futures;
    futures.reserve(mix.size());
    for (const svc::Request& r : mix) futures.push_back(service.submit(r));
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
  }

  const double hits = registry.counter("svc/cache_hits").value() - hits0;
  const double joins = registry.counter("svc/dedup_joins").value() - joins0;
  const double misses = registry.counter("svc/cache_misses").value() - misses0;
  obs::setEnabled(wasEnabled);
  state.SetItemsProcessed(state.iterations() * kRequests);
  state.counters["threads"] = exec::threadCount();
  state.counters["hit_rate"] = (hits + joins) / (hits + joins + misses);
}
BENCHMARK(BM_SvcThroughput)->Unit(benchmark::kMillisecond)->UseRealTime();

int countNumbers(const svc::JsonValue& v) {
  if (v.isNumber()) return 1;
  int n = 0;
  if (v.isArray()) {
    for (const svc::JsonValue& item : v.items()) n += countNumbers(item);
  } else if (v.isObject()) {
    for (const auto& member : v.members()) n += countNumbers(member.second);
  }
  return n;
}

// The JSON serialize layer alone: write() of a real response payload (the
// default 15x15 design_grid, or a 15-point figure34), evaluated and parsed
// back once outside the timed loop. Items = numbers printed per second;
// numbers are nearly all of each payload's bytes.
void BM_JsonWrite(benchmark::State& state, const char* line) {
  svc::Request request;
  std::string error;
  if (!svc::parseRequest(line, request, error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  const std::string data = svc::evaluate(request).data;
  const svc::JsonValue payload = svc::parseJson(data);
  if (payload.write() != data) {
    state.SkipWithError("payload does not round-trip");
    return;
  }
  for (auto _ : state) {
    const std::string out = payload.write();
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * countNumbers(payload));
  state.counters["bytes"] = static_cast<double>(data.size());
}
BENCHMARK_CAPTURE(BM_JsonWrite, design_grid, R"({"kind":"design_grid"})");
BENCHMARK_CAPTURE(BM_JsonWrite, figure34,
                  R"({"kind":"figure34","params":{"points":15}})");

// The canonical-key layer alone: canonicalKey() of a parsed design_point,
// whose three doubles are most of the key. Items = keys/s.
void BM_SvcKey(benchmark::State& state) {
  svc::Request request;
  std::string error;
  if (!svc::parseRequest(
          R"({"kind":"design_point","params":{"vdd":0.55,"vth":0.215}})",
          request, error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(request.canonicalKey());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SvcKey);

// Closed-loop scenario engine: one DTM run of Arg(0) steps over the
// cached canonical plant. Items = integration steps/s; the plant build
// (netlist + STA + grid solve) happens once outside the timed loop, so
// this times the per-step feedback arithmetic and check evaluation. The
// per-step time is flat in the run length (2k vs 20k steps).
void runScenarioBench(benchmark::State& state) {
  scenario::ScenarioSpec spec;
  spec.steps = static_cast<int>(state.range(0));
  spec.traceStride = 1000;
  scenario::ScenarioSetup setup = scenario::makeScenario(spec);
  long checks = 0;
  for (auto _ : state) {
    const scenario::ScenarioResult r =
        scenario::runScenario(*setup.plant, *setup.policy, setup.config);
    checks = r.checksEvaluated;
    benchmark::DoNotOptimize(r.energyJ);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["checks_per_run"] = static_cast<double>(checks);
}

void BM_Scenario(benchmark::State& state) { runScenarioBench(state); }
BENCHMARK(BM_Scenario)->Arg(2000)->Arg(20000)->Unit(benchmark::kMillisecond);

// The same runs with observability on, as `nanod --metrics` serves them.
void BM_ScenarioObsOn(benchmark::State& state) {
  const bool wasEnabled = obs::enabled();
  obs::setEnabled(true);
  runScenarioBench(state);
  obs::setEnabled(wasEnabled);
}
BENCHMARK(BM_ScenarioObsOn)
    ->Arg(2000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// A 4 x 4 scenario_sweep of 2,000 steps through svc::evaluate, as nanod
// serves it (the plant is cached by a first call outside the timed loop).
// It goes through the request layer, so builds with other engine entry
// points run the same rows. Items = integration steps/s over all 16
// variants.
void BM_ScenarioSweep(benchmark::State& state, const char* line) {
  svc::Request request;
  std::string error;
  if (!svc::parseRequest(line, request, error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  if (svc::evaluate(request).status != svc::ResponseStatus::Ok) {
    state.SkipWithError("sweep did not answer ok");
    return;
  }
  for (auto _ : state) {
    const svc::Outcome outcome = svc::evaluate(request);
    benchmark::DoNotOptimize(outcome.data.data());
  }
  state.SetItemsProcessed(state.iterations() * 16 * 2000);
}
BENCHMARK_CAPTURE(BM_ScenarioSweep, dtm,
                  R"({"kind":"scenario_sweep","params":{"scenario":"dtm",)"
                  R"("steps":2000,"axis_a":4,"axis_b":4}})")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScenarioSweep, dvfs,
                  R"({"kind":"scenario_sweep","params":{"scenario":"dvfs",)"
                  R"("steps":2000,"axis_a":4,"axis_b":4}})")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScenarioSweep, wakeup,
                  R"({"kind":"scenario_sweep","params":{"scenario":"wakeup",)"
                  R"("steps":2000,"axis_a":4,"axis_b":4}})")
    ->Unit(benchmark::kMillisecond);

// The `sta` request's netlist generator: a seeded scale-profile
// pipelinedLogic netlist of Arg(0) gates. The library is characterized
// once outside the timed loop, so this times cell picks and netlist
// construction. Items = gates/s.
void BM_PipelinedLogic(benchmark::State& state) {
  const circuit::Library& library = lib100();
  const circuit::GeneratorConfig cfg =
      circuit::scaledConfig(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    util::Rng rng(1);
    benchmark::DoNotOptimize(circuit::pipelinedLogic(library, cfg, rng, 8));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelinedLogic)
    ->Arg(1000)
    ->Arg(4000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// One `sta` request of Arg(0) gates at node 50 with 8 blocks through
// svc::evaluate, as nanod serves a miss: library, generation, timing
// mirror, sweep and reply. It goes through the request layer, so builds
// with other engine entry points run the same row. Items = gates/s.
void BM_StaRequest(benchmark::State& state) {
  const std::string line =
      R"({"kind":"sta","params":{"node_nm":50,"gates":)" +
      std::to_string(state.range(0)) + R"(,"blocks":8}})";
  svc::Request request;
  std::string error;
  if (!svc::parseRequest(line, request, error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  if (svc::evaluate(request).status != svc::ResponseStatus::Ok) {
    state.SkipWithError("sta did not answer ok");
    return;
  }
  for (auto _ : state) {
    const svc::Outcome outcome = svc::evaluate(request);
    benchmark::DoNotOptimize(outcome.data.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StaRequest)->Arg(1000)->Arg(4000);

void BM_TransientSim(benchmark::State& state) {
  const auto& node = tech::nodeByFeature(100);
  const double vth = device::solveVthForIon(node, node.ionTarget);
  auto model =
      std::make_shared<device::Mosfet>(
          device::Mosfet::fromNode(node, vth, node.vdd));
  device::InverterModel inv(node, vth, node.vdd);
  sim::Circuit ckt;
  const int vdd = ckt.node();
  ckt.add(sim::VoltageSource{vdd, 0, sim::Waveform::dc(node.vdd)});
  const int in = ckt.node();
  ckt.add(sim::VoltageSource{
      in, 0, sim::Waveform::pulse(0, node.vdd, 20e-12, 5e-12, 1, 5e-12)});
  int prev = in;
  for (int i = 0; i < 8; ++i) {
    const int out = ckt.node();
    ckt.addInverter(prev, out, vdd, model, inv.wn(), inv.wp());
    prev = out;
  }
  std::size_t timesteps = 0;
  for (auto _ : state) {
    sim::Simulator sim(ckt);
    const sim::TransientResult res = sim.transient(300e-12, 0.5e-12);
    timesteps = res.time.size() - 1;
    benchmark::DoNotOptimize(res.voltages);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(timesteps));  // timesteps/s
}
BENCHMARK(BM_TransientSim)->Unit(benchmark::kMillisecond);

}  // namespace

// Like BENCHMARK_MAIN(), plus the obs run report (NANO_OBS=1) so kernel
// timings come with solver convergence counters attached.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (nano::obs::enabled()) {
    std::cout << '\n';
    nano::obs::printRunReport(std::cout);
  }
  return 0;
}
