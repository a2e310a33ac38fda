// End-to-end tracing and exposition through the svc pipeline: the golden
// replay must stay byte-identical with tracing on, its Chrome trace must
// validate with every request's queue_wait + work + emit accounting for
// its wall time exactly, exec worker spans must pair across lanes, the
// `stats` request kind must answer from the live registry (bypassing the
// cache), and the slow-request log must decompose each offender.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "obs/obs.h"
#include "svc/json.h"
#include "svc/server.h"
#include "svc/tracecheck.h"

namespace nano::svc {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wasEnabled_ = obs::enabled();
    savedCapacity_ = obs::journalCapacity();
    obs::setEnabled(true);
    obs::setTracingEnabled(true);
    obs::MetricsRegistry::instance().reset();
    obs::journalReset();
  }
  void TearDown() override {
    obs::setTracingEnabled(false);
    obs::setJournalCapacity(savedCapacity_);
    obs::journalReset();
    obs::setEnabled(wasEnabled_);
    obs::MetricsRegistry::instance().reset();
    exec::setGlobalThreadCount(exec::defaultThreadCount());
  }
  bool wasEnabled_ = false;
  std::size_t savedCapacity_ = 0;
};

ServiceOptions replayOptions() {
  ServiceOptions options;
  options.blockWhenFull = true;
  return options;
}

std::string readFileOrFail(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string exportedTrace() {
  std::ostringstream os;
  obs::exportChromeTrace(os, obs::journalSnapshot());
  return os.str();
}

TEST_F(TraceTest, GoldenReplayWithTracingIsByteIdenticalAndFullyAccounted) {
  const std::string trace =
      readFileOrFail(std::string(NANO_GOLDEN_DIR) + "/nanod_trace.jsonl");
  const std::string golden =
      readFileOrFail(std::string(NANO_GOLDEN_DIR) + "/nanod_replay.jsonl");
  ASSERT_FALSE(trace.empty());
  ASSERT_FALSE(golden.empty());

  std::istringstream in(trace);
  std::ostringstream out;
  ServerStats stats;
  {
    // Destroy the service before snapshotting the journal: the scheduler
    // stop is what guarantees the last batch's exec spans have closed.
    Service service(replayOptions());
    stats = runServer(in, out, service);
  }

  // Tracing must never leak into the response stream.
  EXPECT_EQ(out.str(), golden)
      << "tracing changed the replay output; responses must stay "
         "content-determined";

  const TraceCheckResult result = validateChromeTrace(exportedTrace());
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.events, 0u);
  EXPECT_GT(result.syncPairs, 0u);   // eval + exec spans
  EXPECT_GT(result.asyncPairs, 0u);  // request/queue_wait/work/emit spans

  // Every parsed line gets a trace; invalid lines never enter the
  // scheduler, so they are the only ones without spans.
  EXPECT_EQ(result.requests.size(), stats.lines - stats.invalid);
  // Ids are session-unique now: all of this run's requests carry the same
  // session ordinal, with the 1-based input line number in the low bits.
  ASSERT_FALSE(result.requests.empty());
  const std::uint64_t session =
      traceSessionOf(result.requests.begin()->first);
  EXPECT_GE(session, 1u);
  for (const auto& [traceId, phases] : result.requests) {
    EXPECT_EQ(traceSessionOf(traceId), session);
    EXPECT_EQ(traceId & kDirectTraceBit, 0u);  // came through a Session
    EXPECT_GE(traceSeqOf(traceId), 1u);
    EXPECT_LE(traceSeqOf(traceId), stats.lines);
    EXPECT_TRUE(phases.accounted())
        << "trace=" << traceId << " request=" << phases.requestNs
        << " queue_wait=" << phases.queueWaitNs << " work=" << phases.workNs
        << " emit=" << phases.emitNs;
  }
}

TEST_F(TraceTest, ExecWorkerSpansPairAcrossLanes) {
  exec::setGlobalThreadCount(4);
  const obs::TraceContextScope scope(obs::TraceContext{99});
  std::vector<double> sink(10000, 0.0);
  exec::parallelFor(sink.size(),
                    [&sink](std::size_t i) { sink[i] = static_cast<double>(i); });

  const TraceCheckResult result = validateChromeTrace(exportedTrace());
  EXPECT_TRUE(result.ok) << result.error;
  // The forking thread records "region"; lanes that stole chunks record
  // "region.worker". All of them must have closed.
  EXPECT_GE(result.syncPairs, 1u);
  const std::string json = exportedTrace();
  EXPECT_NE(json.find("\"name\":\"region\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"trace\":99}"), std::string::npos);
}

TEST_F(TraceTest, StatsKindAnswersFromTheLiveRegistryAndBypassesTheCache) {
  Service service(replayOptions());

  Request warmup;
  warmup.id = "w";
  warmup.kind = RequestKind::Wire;
  warmup.params = WireParams{};
  ASSERT_EQ(service.call(warmup).status, ResponseStatus::Ok);

  Request stats;
  stats.id = "s1";
  stats.kind = RequestKind::Stats;
  stats.params = StatsParams{};
  const Response first = service.call(stats);
  ASSERT_EQ(first.status, ResponseStatus::Ok);

  const JsonValue doc = parseJson(first.data);
  ASSERT_TRUE(doc.isObject());
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* requests = counters->find("svc/requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->asNumber(), 2.0);  // the wire call plus this one
  EXPECT_NE(doc.find("timers"), nullptr);
  EXPECT_NE(doc.find("gauges"), nullptr);

  // Identical stats requests must not be cache hits: the payload is live
  // process state. Before: 1 miss (wire). After two identical stats calls:
  // still 1 miss, 0 hits.
  auto& registry = obs::MetricsRegistry::instance();
  const std::int64_t missesBefore = registry.counter("svc/cache_misses").value();
  stats.id = "s2";
  const Response second = service.call(stats);
  ASSERT_EQ(second.status, ResponseStatus::Ok);
  EXPECT_EQ(registry.counter("svc/cache_misses").value(), missesBefore);
  EXPECT_EQ(registry.counter("svc/cache_hits").value(), 0);

  // Delta mode: the second delta snapshot reports only the increase.
  Request delta;
  delta.id = "d1";
  delta.kind = RequestKind::Stats;
  delta.params = StatsParams{true};
  ASSERT_EQ(service.call(delta).status, ResponseStatus::Ok);  // baseline
  delta.id = "d2";
  const Response d2 = service.call(delta);
  ASSERT_EQ(d2.status, ResponseStatus::Ok);
  const JsonValue deltaDoc = parseJson(d2.data);
  const JsonValue* deltaFlag = deltaDoc.find("delta");
  ASSERT_NE(deltaFlag, nullptr);
  EXPECT_TRUE(deltaFlag->asBool());
  const JsonValue* deltaRequests = deltaDoc.find("counters")->find("svc/requests");
  ASSERT_NE(deltaRequests, nullptr);
  // Exactly one request (d2 itself) was admitted since the d1 baseline.
  EXPECT_EQ(deltaRequests->asNumber(), 1.0);
}

TEST_F(TraceTest, StatsKindParsesFromTheWire) {
  std::istringstream in(
      R"({"id":"w","kind":"wire"})"
      "\n"
      R"({"id":"s","kind":"stats"})"
      "\n"
      R"({"id":"sd","kind":"stats","params":{"delta":true}})"
      "\n");
  std::ostringstream out;
  Service service(replayOptions());
  const ServerStats stats = runServer(in, out, service);
  EXPECT_EQ(stats.ok, 3u);
  std::istringstream lines(out.str());
  std::string line;
  std::getline(lines, line);  // wire
  std::getline(lines, line);  // stats
  EXPECT_NE(line.find(R"("id":"s")"), std::string::npos);
  const JsonValue response = parseJson(line);
  const JsonValue* data = response.find("data");
  ASSERT_NE(data, nullptr);
  EXPECT_NE(data->find("counters"), nullptr);
}

TEST_F(TraceTest, SlowLogDecomposesEveryRequestAtZeroThreshold) {
  std::istringstream in(
      R"({"id":"a","kind":"wire"})"
      "\n"
      R"({"id":"b","kind":"design_point"})"
      "\n"
      R"({"id":"c","kind":"wire"})"
      "\n");
  std::ostringstream out;
  std::ostringstream slowLog;
  ServerOptions options;
  options.slowLog = &slowLog;
  options.slowThresholdMs = 0.0;  // everything is "slow"

  Service service(replayOptions());
  const ServerStats stats = runServer(in, out, service, options);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.slow, 3u);
  EXPECT_EQ(
      obs::MetricsRegistry::instance().counter("svc/slow_requests").value(), 3);

  std::istringstream records(slowLog.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(records, line)) {
    const JsonValue record = parseJson(line);
    ASSERT_TRUE(record.isObject()) << line;
    ASSERT_NE(record.find("id"), nullptr);
    ASSERT_NE(record.find("trace"), nullptr);
    const JsonValue* wall = record.find("wall_ms");
    const JsonValue* queueWait = record.find("queue_wait_ms");
    const JsonValue* eval = record.find("eval_ms");
    const JsonValue* emit = record.find("emit_ms");
    ASSERT_NE(wall, nullptr);
    ASSERT_NE(queueWait, nullptr);
    ASSERT_NE(eval, nullptr);
    ASSERT_NE(emit, nullptr);
    EXPECT_GE(wall->asNumber(), 0.0);
    // The decomposition can never exceed the wall time it partitions
    // (eval nests inside work; rounding is 1e-3 ms per field).
    EXPECT_LE(queueWait->asNumber() + eval->asNumber() + emit->asNumber(),
              wall->asNumber() + 0.01);
    ++parsed;
  }
  EXPECT_EQ(parsed, 3u);
}

TEST_F(TraceTest, UntracedReplayCapturesNoTimestampsOrEvents) {
  obs::setTracingEnabled(false);
  obs::setEnabled(false);
  const std::size_t before = obs::journalSnapshot().size();

  std::istringstream in(
      R"({"id":"a","kind":"wire"})"
      "\n");
  std::ostringstream out;
  Service service(replayOptions());
  const ServerStats stats = runServer(in, out, service);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.slow, 0u);  // untimed responses are never "slow"
  EXPECT_EQ(obs::journalSnapshot().size(), before);
}

}  // namespace
}  // namespace nano::svc
