// End-to-end runs against a nanod child over loopback TCP. Closed loops:
// each client thread sends its next request only after the previous reply.
#include <algorithm>
#include <barrier>
#include <thread>

#include "circuit/generator.h"
#include "obs/exposition.h"
#include "process.h"
#include "svc/eval.h"
#include "svc/request.h"
#include "tech/itrs.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace nano;

namespace {

constexpr int kHotConnections = 4;
constexpr int kListenTimeoutMs = 30000;
constexpr int kStopTimeoutMs = 30000;

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Spawn nanod and wait until it listens; the caller times both.
std::unique_ptr<NanodProcess> startNanod(const Options& options, int index,
                                         E2eRun& run) {
  auto server =
      std::make_unique<NanodProcess>(options.nanod, options.workdir, index);
  if (!server->waitListening(kListenTimeoutMs)) {
    run.problems.push_back("nanod did not start listening");
    return nullptr;
  }
  return server;
}

/// Stop nanod, check from its own exposition that every distinct key
/// missed the cache exactly once and every repeat hit it, and return the
/// exposition.
std::map<std::string, double> stopNanod(std::unique_ptr<NanodProcess>& server,
                                        std::size_t distinctKeys,
                                        std::size_t hits, E2eRun& run) {
  std::map<std::string, double> exposition;
  if (!server) return exposition;
  if (!server->stop(exposition, kStopTimeoutMs)) {
    run.problems.push_back("nanod did not exit cleanly");
  }
  server.reset();
  const double misses = exposition["nano_svc_cache_misses_total"];
  const double hitCount = exposition["nano_svc_cache_hits_total"];
  if (misses != static_cast<double>(distinctKeys) ||
      hitCount != static_cast<double>(hits)) {
    run.problems.push_back(
        "cache counters: misses " + std::to_string(misses) + " hits " +
        std::to_string(hitCount) + ", expected " +
        std::to_string(distinctKeys) + " and " + std::to_string(hits));
  }
  return exposition;
}

/// One svc_hot set-up, timed: spawn -> listening -> every hot key once,
/// one at a time. Returns the server, or null after recording a problem.
std::unique_ptr<NanodProcess> setUpHot(const Options& options, int index,
                                       const std::vector<RequestSpec>& hot,
                                       const std::vector<std::string>& expected,
                                       E2eRun& run) {
  const std::int64_t t0 = nowNs();
  std::unique_ptr<NanodProcess> server = startNanod(options, index, run);
  if (!server) return nullptr;
  Connection conn;
  if (!conn.open(server->port())) {
    run.problems.push_back("connect failed");
    return nullptr;
  }
  std::string response;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const std::string id = requestId('s', static_cast<std::size_t>(index), i);
    const bool got = conn.roundTrip(hot[i].line(id), response);
    run.tally.add(checkResponse(got, response, id, hot[i].kind, expected[i]),
                  response);
  }
  run.setupS.push_back(seconds(nowNs() - t0));
  return server;
}

/// One engine_cold set-up, timed: spawn -> listening -> one warm-up request
/// per kind. Returns the server and leaves `conn` open to it, or returns
/// null after recording a problem.
std::unique_ptr<NanodProcess> setUpCold(const Options& options, int index,
                                        const std::vector<RequestSpec>& warmups,
                                        Connection& conn, E2eRun& run) {
  const std::int64_t t0 = nowNs();
  std::unique_ptr<NanodProcess> server = startNanod(options, index, run);
  if (!server) return nullptr;
  if (!conn.open(server->port())) {
    run.problems.push_back("connect failed");
    return nullptr;
  }
  std::string response;
  for (std::size_t i = 0; i < warmups.size(); ++i) {
    const std::string id = requestId('w', static_cast<std::size_t>(index), i);
    const bool got = conn.roundTrip(warmups[i].line(id), response);
    run.tally.add(checkResponse(got, response, id, warmups[i].kind, {}), response);
  }
  run.setupS.push_back(seconds(nowNs() - t0));
  return server;
}

/// Where one segment of the measured window sits on the wall clock and on
/// the measured clock (which leaves out the set-ups between segments).
struct Segment {
  std::int64_t startNs = 0;
  std::int64_t deadlineNs = 0;
  std::int64_t measuredBeforeNs = 0;
};

Segment openSegment(const Options& options, std::int64_t measuredNs) {
  const std::int64_t now = nowNs();
  const auto length =
      static_cast<std::int64_t>(options.seconds * 1e9 / kSegments);
  return {now, now + length, measuredNs};
}

}  // namespace

std::string referenceLine(const RequestSpec& spec, const std::string& id) {
  svc::Request request;
  std::string error;
  if (!svc::parseRequest(spec.line(id), request, error)) return {};
  return svc::makeResponse(request, svc::evaluate(request)).toJsonLine();
}

double exposed(const E2eRun& run, const std::string& registryName) {
  const auto it = run.exposition.find(obs::prometheusName(registryName) + "_total");
  return it == run.exposition.end() ? 0.0 : it->second;
}

// Both runs take their set-ups between the segments of the measured
// window, on throwaway servers, while the measured server waits: set-up 0
// starts the measured server, set-up k > 0 follows segment k - 1. A burst
// of host steal or a slow stretch of the host then lands on a minority of
// the set-ups, as it does on a minority of the window's slices.

E2eRun runSvcHot(const Options& options, const std::vector<RequestSpec>& hot,
                 const std::vector<std::string>& expected) {
  E2eRun run;
  run.slices = 20;  // ~35k requests a second: 2 s slices at 40 s keep 600+ beyond p99
  std::unique_ptr<NanodProcess> server = setUpHot(options, 0, hot, expected, run);
  if (!server) return run;

  struct Client {
    std::vector<double> latencyMs;
    std::vector<std::int64_t> doneNs;
    Tally tally;
    std::size_t warmups = 0;
    std::int64_t lastDoneNs = 0;  ///< wall clock, in the current segment
  };
  std::vector<Client> clients(kHotConnections);
  // Phases: every client warmed up; then per segment, open and closed.
  std::barrier sync(kHotConnections + 1);
  Segment segment;
  const int port = server->port();
  // A short untimed warm-up per connection lets the new connections'
  // threads and buffers settle before the window opens.
  constexpr std::size_t kWarmupPerConnection = 200;
  auto body = [&](int c) {
    Client& me = clients[static_cast<std::size_t>(c)];
    me.latencyMs.reserve(static_cast<std::size_t>(options.seconds * 40000));
    me.doneNs.reserve(me.latencyMs.capacity());
    HotDraws draws(options.seed, c, hot.size());
    Connection conn;
    const bool connected = conn.open(port);
    std::string response;
    std::size_t seq = 0;
    auto one = [&](const Segment* timed) {
      const std::size_t key = draws.next();
      const std::string id = requestId('c', static_cast<std::size_t>(c), seq++);
      const std::string line = hot[key].line(id);
      const std::int64_t t0 = nowNs();
      const bool got = connected && conn.roundTrip(line, response);
      const std::int64_t t1 = nowNs();
      if (timed != nullptr) {
        me.latencyMs.push_back(static_cast<double>(t1 - t0) * 1e-6);
        me.doneNs.push_back(timed->measuredBeforeNs + t1 - timed->startNs);
        me.lastDoneNs = t1;
      }
      me.tally.add(checkResponse(got, response, id, hot[key].kind, expected[key]),
                   response);
      return got;
    };
    for (std::size_t i = 0; i < kWarmupPerConnection && one(nullptr); ++i) {
      ++me.warmups;
    }
    sync.arrive_and_wait();
    for (int s = 0; s < kSegments; ++s) {
      sync.arrive_and_wait();
      const Segment mine = segment;
      while (nowNs() < mine.deadlineNs && one(&mine)) {
      }
      sync.arrive_and_wait();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kHotConnections; ++c) threads.emplace_back(body, c);
  sync.arrive_and_wait();
  std::int64_t measuredNs = 0;
  for (int s = 0; s < kSegments; ++s) {
    segment = openSegment(options, measuredNs);
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    std::int64_t end = segment.startNs;
    for (const Client& c : clients) end = std::max(end, c.lastDoneNs);
    measuredNs += end - segment.startNs;
    std::unique_ptr<NanodProcess> spare = setUpHot(options, s + 1, hot, expected, run);
    if (spare) stopNanod(spare, hot.size(), 0, run);
  }
  for (std::thread& t : threads) t.join();

  std::size_t warmups = 0;
  for (Client& c : clients) {
    run.latencyMs.insert(run.latencyMs.end(), c.latencyMs.begin(), c.latencyMs.end());
    run.doneNs.insert(run.doneNs.end(), c.doneNs.begin(), c.doneNs.end());
    run.tally.merge(c.tally);
    warmups += c.warmups;
  }
  run.windowS = seconds(measuredNs);
  run.peakRssMb = static_cast<double>(peakRssKb(server->pid())) / 1024.0;
  run.exposition = stopNanod(server, hot.size(), warmups + run.latencyMs.size(), run);
  return run;
}

E2eRun runEngineCold(const Options& options,
                     const std::vector<RequestSpec>& stream) {
  E2eRun run;
  run.slices = 8;  // ~450 requests a second: 5 s slices at 40 s keep 20+ beyond p99
  const std::vector<RequestSpec> warmups = coldWarmups();
  Connection conn;
  std::unique_ptr<NanodProcess> server = setUpCold(options, 0, warmups, conn, run);
  if (!server) return run;

  // The first requests of the stream warm the connection untimed; every
  // request is still a distinct key.
  constexpr std::size_t kWarmup = 8;
  std::vector<std::pair<std::size_t, std::string>> sampled;
  std::string response;
  std::size_t next = 0;
  auto one = [&](const Segment* timed) {
    const RequestSpec& spec = stream[next];
    const std::string id = requestId('e', next);
    const std::string line = spec.line(id);
    const std::int64_t t0 = nowNs();
    const bool got = conn.roundTrip(line, response);
    const std::int64_t t1 = nowNs();
    if (timed != nullptr) {
      run.latencyMs.push_back(static_cast<double>(t1 - t0) * 1e-6);
      run.doneNs.push_back(timed->measuredBeforeNs + t1 - timed->startNs);
    }
    if (got && coldSampled(options.seed, next)) {
      sampled.emplace_back(next, response);  // checked in full below
    } else {
      run.tally.add(checkResponse(got, response, id, spec.kind, {}), response);
    }
    ++next;
    return t1;
  };
  while (next < kWarmup) one(nullptr);
  std::int64_t measuredNs = 0;
  for (int s = 0; s < kSegments; ++s) {
    const Segment segment = openSegment(options, measuredNs);
    std::int64_t end = segment.startNs;
    while (next < stream.size() && end < segment.deadlineNs) end = one(&segment);
    measuredNs += end - segment.startNs;
    Connection spareConn;
    std::unique_ptr<NanodProcess> spare =
        setUpCold(options, s + 1, warmups, spareConn, run);
    if (spare) stopNanod(spare, warmups.size(), 0, run);
  }
  if (next == stream.size()) run.problems.push_back("request stream exhausted");
  run.windowS = seconds(measuredNs);
  run.peakRssMb = static_cast<double>(peakRssKb(server->pid())) / 1024.0;
  conn.close();
  run.exposition = stopNanod(server, warmups.size() + next, 0, run);

  // Whole-payload checks of the seeded sample against svc::evaluate.
  for (const auto& [index, line] : sampled) {
    const std::string id = requestId('e', index);
    const std::string expected = expectedSuffix(referenceLine(stream[index], id));
    run.tally.add(checkResponse(true, line, id, stream[index].kind,
                                expected.empty() ? std::string_view("?") : expected),
                  line);
  }
  return run;
}

FlowInputs makeFlowInputs(std::uint64_t seed) {
  FlowInputs in;
  in.library = std::make_unique<circuit::Library>(tech::nodeByFeature(70));
  for (std::uint64_t s : flowNetlistSeeds(seed, kFlowNetlists)) {
    util::Rng rng(s);
    circuit::GeneratorConfig cfg;
    cfg.gates = kFlowGates;
    cfg.outputs = 24;
    circuit::Netlist nl = circuit::pipelinedLogic(*in.library, cfg, rng, 6);
    // Start from a uniformly drive-2 implementation so the sizing stage
    // has material to work with (as the opt tests do).
    for (int g : nl.gateIds()) {
      nl.replaceCell(g, in.library->pick(nl.node(g).cell.function, 2.0));
    }
    in.netlists.push_back(std::move(nl));
  }
  return in;
}

opt::FlowOptions flowOptions(int order) {
  opt::FlowOptions o;
  if (order == 1) {
    o.stages = {opt::FlowStage::Downsize, opt::FlowStage::DualVth,
                opt::FlowStage::MultiVdd};
  }
  return o;
}

bool flowPasses(const opt::FlowResult& result) {
  if (!result.timingBefore.meetsTiming() || result.stages.empty()) return false;
  for (const opt::FlowStageResult& s : result.stages) {
    if (!s.timing.meetsTiming()) return false;
  }
  return result.totalSavings() > 0.0;
}

}  // namespace perfbench
