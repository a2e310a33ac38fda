// Trace journal behavior: event pairing and ordering, explicit context
// propagation, bounded buffers that drop (never wrap) when full, the
// Chrome trace-event serialization, and — the TSan target — concurrent
// recording from many threads while a reader exports.
#include "obs/journal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace nano::obs {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wasEnabled_ = enabled();
    savedCapacity_ = journalCapacity();
    setEnabled(false);
    setTracingEnabled(true);
    journalReset();
  }
  void TearDown() override {
    setTracingEnabled(false);
    setJournalCapacity(savedCapacity_);
    journalReset();
    setEnabled(wasEnabled_);
    MetricsRegistry::instance().reset();
  }
  bool wasEnabled_ = false;
  std::size_t savedCapacity_ = 0;
};

/// Events recorded by this test run only (the journal is process-global,
/// and a plain `./obs_test` run shares it across TEST_Fs).
std::vector<TraceEvent> eventsSince(std::size_t before) {
  std::vector<TraceEvent> all = journalSnapshot();
  return {all.begin() + static_cast<std::ptrdiff_t>(before), all.end()};
}

TEST_F(JournalTest, SyncSpansPairLifoOnOneThread) {
  const std::size_t before = journalSnapshot().size();
  const TraceContext ctx{42};
  {
    TraceSpan outer("test", "outer", ctx);
    { TraceSpan inner("test", "inner", ctx); }
  }
  const auto events = eventsSince(before);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[1].phase, 'B');
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[2].phase, 'E');
  EXPECT_STREQ(events[2].name, "inner");
  EXPECT_EQ(events[3].phase, 'E');
  EXPECT_STREQ(events[3].name, "outer");
  for (const auto& e : events) {
    EXPECT_EQ(e.id, 42u);
    EXPECT_EQ(e.tid, events[0].tid);  // all on this thread
    EXPECT_GT(e.tsNs, 0);
  }
  EXPECT_LE(events[0].tsNs, events[3].tsNs);  // monotone per thread
}

TEST_F(JournalTest, AsyncCompleteAndInstantCarryTheirPayloads) {
  const std::size_t before = journalSnapshot().size();
  const TraceContext ctx{7};
  traceAsyncSpan("svc", "request", ctx, 1000, 5000);
  traceComplete("svc", "eval", ctx, 2000, 1500);
  traceInstant("svc", "cache.hit", ctx);
  const auto events = eventsSince(before);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, 'b');
  EXPECT_EQ(events[0].tsNs, 1000);
  EXPECT_EQ(events[1].phase, 'e');
  EXPECT_EQ(events[1].tsNs, 5000);
  EXPECT_EQ(events[2].phase, 'X');
  EXPECT_EQ(events[2].tsNs, 2000);
  EXPECT_EQ(events[2].durNs, 1500);
  EXPECT_EQ(events[3].phase, 'i');
}

TEST_F(JournalTest, DisabledTracingRecordsNothingAndTimingReadsNoClock) {
  setTracingEnabled(false);
  const std::size_t before = journalSnapshot().size();
  traceBegin("test", "ignored", {});
  traceEnd("test", "ignored", {});
  { TraceSpan span("test", "ignored", {}); }
  EXPECT_EQ(journalSnapshot().size(), before);
  // Neither obs nor tracing enabled: the hot-path clock is gated off.
  EXPECT_EQ(timingNowNs(), 0);
  setTracingEnabled(true);
  EXPECT_GT(timingNowNs(), 0);
}

TEST_F(JournalTest, ContextScopeInstallsAndRestores) {
  EXPECT_EQ(currentTraceContext().id, 0u);
  {
    TraceContextScope outer(TraceContext{5});
    EXPECT_EQ(currentTraceContext().id, 5u);
    {
      TraceContextScope inner(TraceContext{9});
      EXPECT_EQ(currentTraceContext().id, 9u);
    }
    EXPECT_EQ(currentTraceContext().id, 5u);
  }
  EXPECT_EQ(currentTraceContext().id, 0u);
}

TEST_F(JournalTest, FullBufferDropsNewestAndCounts) {
  setJournalCapacity(4);
  journalReset();
  const std::uint64_t droppedBefore = journalDropped();
  for (int i = 0; i < 10; ++i) traceInstant("test", "spam", {});
  // This thread's buffer holds 4; six instants were dropped, not wrapped
  // (write-once slots are what make concurrent export race-free).
  EXPECT_EQ(journalSnapshot().size(), 4u);
  EXPECT_EQ(journalDropped() - droppedBefore, 6u);

  setJournalCapacity(1 << 16);
  journalReset();
  EXPECT_EQ(journalSnapshot().size(), 0u);
  traceInstant("test", "alive", {});
  EXPECT_EQ(journalSnapshot().size(), 1u);  // reset restores the capacity
}

TEST_F(JournalTest, ChromeExportRendersMicrosecondsAndIds) {
  setJournalCapacity(64);
  journalReset();
  const TraceContext ctx{3};
  traceAsyncSpan("svc", "request", ctx, 1234567, 7654321);
  traceComplete("svc", "eval", ctx, 2000000, 500000);
  std::ostringstream os;
  exportChromeTrace(os, journalSnapshot());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1234.567"), std::string::npos);   // ns -> us
  EXPECT_NE(json.find("\"dur\":500.000"), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x3\""), std::string::npos);    // async id
  EXPECT_NE(json.find("\"args\":{\"trace\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// The TSan target: 8 writer threads hammer counters, a histogram-backed
// timer, and the journal while the main thread concurrently snapshots and
// exports everything. Any missing synchronization in the lock-free paths
// shows up as a TSan report; the assertions just keep the work honest.
TEST_F(JournalTest, ConcurrentMutationWhileExportingIsRaceFree) {
  setEnabled(true);
  setJournalCapacity(1 << 12);
  journalReset();
  auto& registry = MetricsRegistry::instance();
  registry.reset();

  constexpr int kThreads = 8;
  constexpr int kOps = 5000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, &running, t] {
      const TraceContext ctx{static_cast<std::uint64_t>(t + 1)};
      for (int i = 0; i < kOps; ++i) {
        registry.counter("journal_test/ops").add(1);
        registry.timer("journal_test/latency")
            .record(1e-6 * static_cast<double>(i % 97 + 1));
        TraceSpan span("test", "work", ctx);
        traceInstant("test", "tick", ctx);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  std::size_t snapshots = 0;
  while (running.load(std::memory_order_acquire) > 0) {
    const std::vector<TraceEvent> events = journalSnapshot();
    for (const TraceEvent& e : events) {
      // Every published record is fully written: no torn reads.
      ASSERT_NE(e.name, nullptr);
      ASSERT_NE(e.cat, nullptr);
      ASSERT_GT(e.tsNs, 0);
    }
    std::ostringstream sink;
    for (const auto& row : registry.timers()) {
      sink << row.name << row.stat.count << row.stat.p99;
    }
    (void)journalDropped();
    ++snapshots;
  }
  for (auto& w : writers) w.join();

  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(registry.counter("journal_test/ops").value(),
            static_cast<std::int64_t>(kThreads) * kOps);
  const auto latency = registry.timer("journal_test/latency").snapshot();
  EXPECT_EQ(latency.count, static_cast<std::int64_t>(kThreads) * kOps);
}

}  // namespace
}  // namespace nano::obs
