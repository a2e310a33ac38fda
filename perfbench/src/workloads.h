// The two workloads: their end-to-end runs against a nanod child over
// loopback TCP, their traced in-process replays, and the opt:: flow chain
// that engine_cold's traced run carries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "circuit/library.h"
#include "circuit/netlist.h"
#include "inputs.h"
#include "opt/combined.h"

namespace perfbench {

namespace circuit = nano::circuit;
namespace opt = nano::opt;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  std::string nanod;    ///< nanod executable
  std::string workdir;  ///< directory for this run's files
};

/// The measured window runs in this many equal segments with one set-up
/// between each pair (and one before the first), so set-up times are
/// sampled across the whole run like the window itself.
inline constexpr int kSegments = 20;

/// What one end-to-end run measured.
struct E2eRun {
  std::vector<double> setupS;        ///< one entry per set-up
  std::vector<double> latencyMs;     ///< measured requests only
  /// Completion time of each, same order, on the measured clock: ns since
  /// the window opened, leaving out the set-ups between segments.
  std::vector<std::int64_t> doneNs;
  double windowS = 0.0;  ///< measured time, set-ups left out
  double peakRssMb = 0.0;
  /// Equal slices of the measured window that throughput, p50 and p99 are
  /// medians over: as many as keep 10+ samples beyond p99 in each slice,
  /// so a burst of host steal moves a minority of slices.
  int slices = 1;
  Tally tally;
  std::vector<std::string> problems;  ///< run-level check failures
  std::map<std::string, double> exposition;  ///< last nanod's --metrics file
};

/// In-process response line of `spec` under `id` (svc::evaluate, then the
/// response serializer): the byte-exact reference for nanod's reply.
std::string referenceLine(const RequestSpec& spec, const std::string& id);

E2eRun runSvcHot(const Options& options, const std::vector<RequestSpec>& hot,
                 const std::vector<std::string>& expected);
E2eRun runEngineCold(const Options& options,
                     const std::vector<RequestSpec>& stream);

// The opt flow chain ------------------------------------------------------

struct FlowInputs {
  std::unique_ptr<circuit::Library> library;
  std::vector<circuit::Netlist> netlists;
};
/// The seed's flow netlists and the library they use.
FlowInputs makeFlowInputs(std::uint64_t seed);
/// Each netlist goes through both stage orders the paper compares:
/// CVS-first (order 0) and the sizing-first order it argues against.
inline constexpr int kFlowOrders = 2;
opt::FlowOptions flowOptions(int order);
/// Every stage meets timing and the flow saves power.
bool flowPasses(const opt::FlowResult& result);

// Traced replays -> per-layer metrics -------------------------------------

using LayerValues = std::map<std::string, double>;

void replaySvcHot(const Options& options, const std::vector<RequestSpec>& hot,
                  const std::vector<std::string>& expected, const E2eRun& e2e,
                  LayerValues& out, Tally& tally, std::string& spanCsv);
void replayEngineCold(const std::vector<RequestSpec>& stream, const E2eRun& e2e,
                      LayerValues& out, Tally& tally, std::string& spanCsv);
/// The opt flow chain, carried by engine_cold's traced run: nanod never
/// reaches opt/, so this is where that layer is measured.
void replayOptFlow(const FlowInputs& inputs, LayerValues& out, Tally& tally,
                   std::string& spanCsv);

/// Exposition counter (Prometheus name of a registry counter), 0 if absent.
double exposed(const E2eRun& run, const std::string& registryName);

/// The traced run's spans must cover at least this share of each operation
/// chain's wall time (trace.chain_share, the smallest chain's coverage).
inline constexpr double kMinChainShare = 0.9;
/// A run-level problem when trace.chain_share is below kMinChainShare or
/// missing; empty otherwise.
std::string chainShareProblem(const LayerValues& layers);

}  // namespace perfbench
