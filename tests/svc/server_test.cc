// End-to-end tests for the JSON-lines front end: response ordering,
// malformed-input handling, the committed golden replay trace, and the
// PR acceptance criterion (a 10k-request mixed trace with a >=90% cache
// hit rate whose output is byte-identical at 1 and 8 exec lanes).
#include "svc/server.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "kernel/dispatch.h"
#include "obs/obs.h"

namespace nano::svc {
namespace {

/// A service configured like `nanod --block`: replay clients prefer
/// backpressure over sheds so traces replay without loss.
ServiceOptions replayOptions() {
  ServiceOptions options;
  options.blockWhenFull = true;
  return options;
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(Service, ExportsKernelIsaGaugeBeforeAnyKernelRuns) {
  // nanod --metrics must carry the dispatch ISA even when no request
  // dispatches a kernel: the Service publishes it on construction.
  auto& registry = obs::MetricsRegistry::instance();
  const bool wasEnabled = obs::enabled();
  const kernel::Isa savedIsa = kernel::activeIsa();
  obs::setEnabled(true);
  std::vector<kernel::Isa> tiers = {kernel::Isa::Scalar};
  if (kernel::detectIsa() == kernel::Isa::Avx2) {
    tiers.push_back(kernel::Isa::Avx2);
  }
  for (const kernel::Isa isa : tiers) {
    kernel::setActiveIsa(isa);
    registry.reset();  // forget the gauge setActiveIsa just wrote
    { const Service service; }
    std::ostringstream prom;
    obs::exportPrometheus(prom);
    const std::string expected =
        isa == kernel::Isa::Avx2 ? "\nnano_kernel_isa_avx2 1\n"
                                 : "\nnano_kernel_isa_avx2 0\n";
    EXPECT_NE(prom.str().find(expected), std::string::npos) << prom.str();
  }
  kernel::setActiveIsa(savedIsa);
  obs::setEnabled(wasEnabled);
  registry.reset();
}

TEST(RunServer, EmitsResponsesInInputOrder) {
  std::istringstream in(
      R"({"id":"r0","kind":"wire"})"
      "\n"
      R"({"id":"r1","kind":"design_point"})"
      "\n"
      R"({"id":"r2","kind":"repeater"})"
      "\n"
      R"({"id":"r3","kind":"wire"})"
      "\n");
  std::ostringstream out;
  Service service(replayOptions());
  const ServerStats stats = runServer(in, out, service);
  EXPECT_EQ(stats.lines, 4u);
  EXPECT_EQ(stats.ok, 4u);
  const std::vector<std::string> lines = splitLines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const std::string prefix =
        std::string(R"({"id":"r)") + std::to_string(i) + R"(",)";
    EXPECT_EQ(lines[i].compare(0, prefix.size(), prefix), 0) << lines[i];
  }
}

TEST(RunServer, SkipsBlanksTalliesInvalidAndKeepsServing) {
  std::istringstream in(
      "\n"
      R"({"id":"good1","kind":"wire"})"
      "\n"
      "this is not json\n"
      "\r\n"                              // CRLF blank
      R"({"id":"good2","kind":"wire"})"
      "\r\n"                              // CRLF-terminated request
      R"({"id":"late","kind":"wire","deadline_ms":0})"
      "\n");
  std::ostringstream out;
  Service service(replayOptions());
  const ServerStats stats = runServer(in, out, service);
  EXPECT_EQ(stats.lines, 4u);  // blank lines are not consumed as requests
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  const std::vector<std::string> lines = splitLines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[1].find(R"("status":"invalid")"), std::string::npos);
  EXPECT_NE(lines[3].find(R"("status":"timeout")"), std::string::npos);
}

TEST(RunServer, OverlongScenarioIsRejectedAsInvalid) {
  // 200,000 steps of 100 ms would be 20,000 s of simulated time: answered
  // with a structured invalid line, never evaluated.
  std::istringstream in(
      R"({"id":"long","kind":"scenario","params":{"steps":200000,"dt_us":1e5}})"
      "\n"
      R"({"id":"after","kind":"wire"})"
      "\n");
  std::ostringstream out;
  Service service(replayOptions());
  const ServerStats stats = runServer(in, out, service);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.ok, 1u);
  const std::vector<std::string> lines = splitLines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind(R"({"id":"long",)", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find(R"("status":"invalid")"), std::string::npos);
  EXPECT_NE(lines[0].find("dt_us"), std::string::npos);
}

TEST(RunServer, InfiniteParamsAreInvalidWhicheverComesFirst) {
  // +inf and -inf once shared the canonical key "vdd=null", so the first
  // of the two decided both replies.
  const std::string pos =
      R"({"id":"pos","kind":"design_point","params":{"vdd":1e999}})";
  const std::string neg =
      R"({"id":"neg","kind":"design_point","params":{"vdd":-1e999}})";
  auto replay = [](const std::string& first, const std::string& second) {
    std::istringstream in(first + "\n" + second + "\n");
    std::ostringstream out;
    Service service(replayOptions());
    const ServerStats stats = runServer(in, out, service);
    EXPECT_EQ(stats.invalid, 2u);
    return splitLines(out.str());
  };
  const std::vector<std::string> posFirst = replay(pos, neg);
  const std::vector<std::string> negFirst = replay(neg, pos);
  ASSERT_EQ(posFirst.size(), 2u);
  ASSERT_EQ(negFirst.size(), 2u);
  EXPECT_EQ(posFirst[0], negFirst[1]);
  EXPECT_EQ(posFirst[1], negFirst[0]);
  for (const std::string& line : posFirst) {
    EXPECT_NE(line.find(R"("status":"invalid")"), std::string::npos) << line;
    EXPECT_NE(line.find("finite"), std::string::npos) << line;
  }
}

TEST(RunServer, DeterministicErrorsAreStructuredNotFatal) {
  // 90 nm is not a roadmap node: evaluation throws, the service answers
  // with status:"error", and later requests still succeed.
  std::istringstream in(
      R"({"id":"bad","kind":"node_summary","params":{"node_nm":90}})"
      "\n"
      R"({"id":"after","kind":"wire"})"
      "\n");
  std::ostringstream out;
  Service service(replayOptions());
  const ServerStats stats = runServer(in, out, service);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.ok, 1u);
  const std::vector<std::string> lines = splitLines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find(R"("status":"error")"), std::string::npos);
  EXPECT_NE(lines[0].find("90"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("status":"ok")"), std::string::npos);
}

TEST(RunServer, TinyEmitQueueLimitBlocksTheReaderButLosesNothing) {
  // The emit bound used to be a hardcoded 8192 inside the server loop;
  // now it is ServerOptions::emitQueueLimit. At the smallest useful limit
  // the reader stalls instead of buffering, and the output is still
  // complete and ordered.
  std::ostringstream trace;
  for (int i = 0; i < 64; ++i) {
    trace << R"({"id":"q)" << i << R"(","kind":"wire","params":{)"
          << R"("width_multiple":)" << 1.0 + 0.01 * i << "}}\n";
  }
  std::istringstream in(trace.str());
  std::ostringstream out;
  ServerOptions options;
  options.emitQueueLimit = 1;
  Service service(replayOptions());
  const ServerStats stats = runServer(in, out, service, options);
  EXPECT_EQ(stats.lines, 64u);
  EXPECT_EQ(stats.ok, 64u);
  const std::vector<std::string> lines = splitLines(out.str());
  ASSERT_EQ(lines.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    const std::string prefix =
        std::string(R"({"id":"q)") + std::to_string(i) + R"(",)";
    EXPECT_EQ(lines[static_cast<std::size_t>(i)].compare(0, prefix.size(),
                                                         prefix),
              0)
        << lines[static_cast<std::size_t>(i)];
  }
}

std::string readFileOrFail(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path
                         << " (run scripts/refresh_goldens.sh)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(GoldenReplay, CommittedTraceReproducesGoldenResponsesByteForByte) {
  const std::string trace =
      readFileOrFail(std::string(NANO_GOLDEN_DIR) + "/nanod_trace.jsonl");
  const std::string golden =
      readFileOrFail(std::string(NANO_GOLDEN_DIR) + "/nanod_replay.jsonl");
  ASSERT_FALSE(trace.empty());
  ASSERT_FALSE(golden.empty());

  std::istringstream in(trace);
  std::ostringstream out;
  Service service(replayOptions());
  const ServerStats stats = runServer(in, out, service);
  EXPECT_GT(stats.lines, 0u);
  EXPECT_EQ(out.str(), golden)
      << "nanod replay drifted from golden/nanod_replay.jsonl; if the model "
         "change is intentional, regenerate with scripts/refresh_goldens.sh";
}

/// The acceptance-criterion trace: kUnique distinct cheap queries repeated
/// kRepeats times (10k lines total), so every line after the first block
/// should be served from cache.
constexpr int kUnique = 250;
constexpr int kRepeats = 40;

std::string mixedTrace() {
  std::ostringstream trace;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (int u = 0; u < kUnique; ++u) {
      const int id = rep * kUnique + u;
      switch (u % 3) {
        case 0:
          trace << R"({"id":"t)" << id
                << R"(","kind":"design_point","params":{"vdd":)"
                << 0.4 + 0.002 * u << R"(,"vth":0.17}})"
                << "\n";
          break;
        case 1:
          trace << R"({"id":"t)" << id
                << R"(","kind":"wire","params":{"width_multiple":)"
                << 1.0 + 0.05 * u << "}}\n";
          break;
        default:
          trace << R"({"id":"t)" << id
                << R"(","kind":"repeater","params":{"width_multiple":)"
                << 1.0 + 0.05 * u << "}}\n";
          break;
      }
    }
  }
  return trace.str();
}

std::string replayMixedTrace(const std::string& trace) {
  std::istringstream in(trace);
  std::ostringstream out;
  Service service(replayOptions());
  const ServerStats stats = runServer(in, out, service);
  EXPECT_EQ(stats.lines, static_cast<std::size_t>(kUnique * kRepeats));
  EXPECT_EQ(stats.ok, static_cast<std::size_t>(kUnique * kRepeats));
  return out.str();
}

TEST(MixedTrace, TenThousandRequestsHitCacheAndMatchAcrossLaneCounts) {
  const std::string trace = mixedTrace();

  auto& registry = obs::MetricsRegistry::instance();
  const bool wasEnabled = obs::enabled();
  registry.reset();
  obs::setEnabled(true);

  exec::setGlobalThreadCount(1);
  const std::string serial = replayMixedTrace(trace);

  const double hits = registry.counter("svc/cache_hits").value();
  const double joins = registry.counter("svc/dedup_joins").value();
  const double misses = registry.counter("svc/cache_misses").value();
  const double total = static_cast<double>(kUnique * kRepeats);
  // Every unique query computes exactly once; all repeats are served from
  // cache (at 1 lane nothing can dedup in flight, so they are plain hits).
  EXPECT_EQ(misses, kUnique);
  EXPECT_GE((hits + joins) / total, 0.9)
      << "hits=" << hits << " joins=" << joins << " misses=" << misses;

  exec::setGlobalThreadCount(8);
  const std::string wide = replayMixedTrace(trace);
  const double missesWide =
      registry.counter("svc/cache_misses").value() - misses;
  EXPECT_EQ(missesWide, kUnique);

  obs::setEnabled(wasEnabled);
  registry.reset();
  exec::setGlobalThreadCount(exec::defaultThreadCount());

  ASSERT_EQ(splitLines(serial).size(), static_cast<std::size_t>(kUnique * kRepeats));
  EXPECT_EQ(serial, wide)
      << "responses must be byte-identical regardless of lane count";
}

}  // namespace
}  // namespace nano::svc
