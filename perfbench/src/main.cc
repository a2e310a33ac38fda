// perfbench — the repository's end-to-end and per-layer benchmark program.
// Runs one workload for one seed and prints every metric by name with its
// unit; the last stdout line is the JSON result:
//   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same end-to-end run is followed by the traced in-process replays and the
// metrics are the per-layer ones. See perfbench/README.md.
//
//   perfbench --workload svc_hot --seed 1 --seconds 40 --trace 0
//             --nanod .bench_build/perfbench/tools/nanod --workdir DIR
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "exec/exec.h"
#include "kernel/dispatch.h"
#include "stats.h"
#include "svc/json.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload svc_hot|engine_cold "
               "--seed N --seconds S --trace 0|1 --nanod PATH --workdir DIR\n";
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value == "1";
    } else if (arg == "--nanod") {
      o.nanod = value;
    } else if (arg == "--workdir") {
      o.workdir = value;
    } else {
      usage("unknown option " + arg);
    }
  }
  if (o.workload != "svc_hot" && o.workload != "engine_cold") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0) || o.workdir.empty() || o.nanod.empty()) {
    usage("--seconds, --workdir and --nanod are required");
  }
  return o;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Throughput, p50 and p99 are medians over the run's equal slices of the
/// measured window, by completion time; setup_s is the median set-up.
std::vector<Metric> endToEnd(const E2eRun& run) {
  const auto slices = static_cast<std::size_t>(run.slices);
  const double sliceS = run.windowS / static_cast<double>(slices);
  std::vector<std::vector<double>> bySlice(slices);
  for (std::size_t i = 0; i < run.latencyMs.size(); ++i) {
    const double at = static_cast<double>(run.doneNs[i]) * 1e-9 / sliceS;
    bySlice[std::min(slices - 1, static_cast<std::size_t>(at))].push_back(run.latencyMs[i]);
  }
  std::vector<double> rates, p50s, p99s;
  std::size_t fewestBeyond = run.latencyMs.size();
  for (std::vector<double>& slice : bySlice) {
    rates.push_back(static_cast<double>(slice.size()) / sliceS);
    p50s.push_back(percentile(slice, 0.5));
    p99s.push_back(percentile(slice, 0.99));
    fewestBeyond = std::min(fewestBeyond, samplesBeyond(slice, 0.99));
  }
  std::cout << "samples " << run.latencyMs.size() << " in " << slices << " slice(s), "
            << fewestBeyond << "+ beyond p99 in every slice\n";
  if (fewestBeyond < 10) std::cout << "warning: p99_ms has under 10 samples beyond it\n";
  if (!run.setupS.empty()) {
    const auto [fastest, slowest] = std::minmax_element(run.setupS.begin(), run.setupS.end());
    std::cout << "set-ups " << run.setupS.size() << ", fastest " << *fastest
              << " s, slowest " << *slowest << " s\n";
  }
  return {
      {"setup_s", median(run.setupS), "s"},
      {"throughput_per_s", median(rates), "1/s"},
      {"p50_ms", median(p50s), "ms"},
      {"p99_ms", median(p99s), "ms"},
      {"peak_rss_mb", run.peakRssMb, "MB"},
  };
}

/// The per-layer table: every name is reported on every workload (0 where
/// the layer is not reached or not measured there).
std::vector<Metric> perLayer(const LayerValues& values) {
  static const char* const kSpans[] = {
      "svc.parse",          "svc.key",           "svc.cache",
      "svc.eval",           "svc.serialize",     "svc.scheduler",
      "svc.session",        "circuit.generate",  "circuit.mirror",
      "sta.analyze",        "core.design",       "core.figure",
      "powergrid.solve",    "interconnect.repeater", "scenario.setup",
      "scenario.run",       "opt.cvs",           "opt.dual_vth",
      "opt.downsize",       "sta.analyze_netlist", "power.compute"};
  static const std::pair<const char*, const char*> kOthers[] = {
      {"svc.scheduler.wait_us", "us"},
      {"svc.session.p50_us", "us"},
      {"net.overhead_us", "us"},
      {"net.bytes_out_per_op", "bytes"},
      {"obs.cost_us", "us"},
      {"svc.cache.hit_ratio", "ratio"},
      {"svc.cache.evictions", "count"},
      {"scenario.plant_reuse_ratio", "ratio"},
      {"kernel.batches_per_op", "count"},
      {"powergrid.cg_iterations_per_solve", "count"},
      {"opt.cvs.trials_per_flow", "count"},
      {"opt.cvs.accept_ratio", "ratio"},
      {"opt.dual_vth.accept_ratio", "ratio"},
      {"sta.incremental.nodes_per_trial", "count"},
      {"circuit.mirror_builds_per_flow", "count"},
      {"trace.overhead_share", "share"},
      {"trace.chain_share", "share"},
  };
  auto value = [&](const std::string& name) {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };
  std::vector<Metric> out;
  for (const char* span : kSpans) {
    const std::string s = span;
    out.push_back({s + ".calls", value(s + ".calls"), "count"});
    out.push_back({s + ".self_us", value(s + ".self_us"), "us"});
    out.push_back({s + ".share", value(s + ".share"), "share"});
  }
  for (const auto& [name, unit] : kOthers) out.push_back({name, value(name), unit});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parseArgs(argc, argv);
  std::cout << "RUNINFO {\"kernel_isa\":\""
            << nano::kernel::isaName(nano::kernel::activeIsa())
            << "\",\"exec_lanes\":" << nano::exec::threadCount() << "}\n";

  E2eRun run;
  LayerValues layers;
  Tally replayTally;
  std::string spanCsv = "replay,name,op,parent,start_ns,end_ns\n";
  if (options.workload == "svc_hot") {
    const std::vector<RequestSpec> hot = hotSet(options.seed);
    std::vector<std::string> expected;
    for (const RequestSpec& spec : hot) {
      expected.push_back(expectedSuffix(referenceLine(spec, "x")));
    }
    run = runSvcHot(options, hot, expected);
    if (options.trace && run.problems.empty()) {
      replaySvcHot(options, hot, expected, run, layers, replayTally, spanCsv);
    }
  } else {
    // More requests than the window can use at 3k/s, over 6 times the rate
    // on the reference host; the run reports an exhausted stream as a
    // problem instead of repeating keys.
    const std::vector<RequestSpec> stream = coldStream(
        options.seed, static_cast<std::size_t>(options.seconds * 3000) + 2000);
    run = runEngineCold(options, stream);
    if (options.trace && run.problems.empty()) {
      replayEngineCold(stream, run, layers, replayTally, spanCsv);
      replayOptFlow(makeFlowInputs(options.seed), layers, replayTally, spanCsv);
    }
  }
  run.tally.merge(replayTally);
  if (options.trace && run.problems.empty()) {
    const std::string problem = chainShareProblem(layers);
    if (!problem.empty()) run.problems.push_back(problem);
  }

  for (const std::string& p : run.problems) std::cout << "problem: " << p << '\n';
  if (!run.tally.firstFailure.empty()) {
    std::cout << "first failure: " << run.tally.firstFailure << '\n';
  }
  const bool correct = run.problems.empty() && run.tally.failed == 0 &&
                       !run.latencyMs.empty();
  std::cout << "attempted " << run.tally.attempted << ", failed "
            << run.tally.failed << ", failed_share "
            << (run.tally.attempted > 0 ? static_cast<double>(run.tally.failed) /
                                              static_cast<double>(run.tally.attempted)
                                        : 1.0)
            << '\n';
  if (run.latencyMs.empty()) {
    std::cerr << "perfbench: no operation completed\n";
    return 1;
  }

  const std::vector<Metric> metrics = options.trace ? perLayer(layers) : endToEnd(run);
  if (options.trace) {
    const std::string path = options.workdir + "/spans.csv";
    std::ofstream(path, std::ios::binary) << spanCsv;
    std::cout << "spans written to " << path << '\n';
  }
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(run.tally.attempted) +
                     ",\"failed\":" + std::to_string(run.tally.failed) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << "metric " << m.name << " = " << number(m.value) << ' ' << m.unit << '\n';
    if (i > 0) json += ',';
    json += nano::svc::quoteJsonString(m.name);
    json += ":{\"value\":" + number(m.value) + ",\"unit\":\"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
