// End-to-end tests for the JSON-lines front end: response ordering,
// malformed-input handling, the committed golden replay trace, and the
// PR acceptance criterion (a 10k-request mixed trace with a >=90% cache
// hit rate whose output is byte-identical at 1 and 8 exec lanes).
#include "svc/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec.h"
#include "kernel/dispatch.h"
#include "obs/obs.h"
#include "svc/json.h"
#include "tech/itrs.h"

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

TEST(RunServer, CachedKeyStillTimesOutOnZeroDeadlineAndStatsBypassesTheCache) {
  auto& registry = obs::MetricsRegistry::instance();
  const bool wasEnabled = obs::enabled();
  registry.reset();
  obs::setEnabled(true);
  Service service(replayOptions());
  Request warm;
  warm.id = "warm";
  warm.kind = RequestKind::Wire;
  warm.params = WireParams{};
  ASSERT_EQ(service.call(warm).status, ResponseStatus::Ok);  // now cached

  std::istringstream in(
      R"({"id":"late","kind":"wire","deadline_ms":0})"
      "\n"
      R"({"id":"hit","kind":"wire"})"
      "\n"
      R"({"id":"s1","kind":"stats"})"
      "\n"
      R"({"id":"s2","kind":"stats"})"
      "\n");
  std::ostringstream out;
  const ServerStats stats = runServer(in, out, service);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.ok, 3u);
  const std::vector<std::string> lines = splitLines(out.str());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0],
            R"({"id":"late","kind":"wire","status":"timeout",)"
            R"("error":"deadline expired before evaluation"})");
  EXPECT_EQ(lines[1].rfind(R"({"id":"hit","kind":"wire","status":"ok",)", 0),
            0u)
      << lines[1];
  // The expired request never reached the cache, and neither stats
  // snapshot was looked up or stored: one miss (warm) and one hit (hit).
  EXPECT_EQ(registry.counter("svc/cache_misses").value(), 1);
  EXPECT_EQ(registry.counter("svc/cache_hits").value(), 1);
  EXPECT_EQ(registry.counter("svc/timeouts").value(), 1);
  EXPECT_EQ(service.cache().size(), 1u);
  obs::setEnabled(wasEnabled);
  registry.reset();
}

Request wireRequest(const std::string& id, double widthMultiple) {
  Request r;
  r.id = id;
  r.kind = RequestKind::Wire;
  WireParams p;
  p.widthMultiple = widthMultiple;
  r.params = p;
  return r;
}

TEST(Service, CacheHitIsAnsweredOkWhileTheQueueIsFull) {
  // A hit never enters the queue: with the batcher held inside a
  // completion and the one-slot queue full, a miss is shed but a hit is
  // answered at once, and it still counts as a request.
  auto& registry = obs::MetricsRegistry::instance();
  const bool wasEnabled = obs::enabled();
  registry.reset();
  obs::setEnabled(true);
  {
    ServiceOptions options;
    options.scheduler.maxQueue = 1;
    options.scheduler.maxBatch = 1;
    Service service(options);
    ASSERT_EQ(service.call(wireRequest("warm", 1.0)).status, ResponseStatus::Ok);

    std::mutex mutex;
    std::condition_variable cv;
    bool entered = false;
    bool released = false;
    service.submit(wireRequest("plug", 2.0), [&](Response&&) {
      std::unique_lock<std::mutex> lock(mutex);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    });
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return entered; });
    }
    auto filler = service.submit(wireRequest("filler", 3.0));
    EXPECT_EQ(service.submit(wireRequest("overflow", 4.0)).get().status,
              ResponseStatus::Shed);

    const double requestsBefore = registry.counter("svc/requests").value();
    const double hitsBefore = registry.counter("svc/cache_hits").value();
    auto hit = service.submit(wireRequest("hit", 1.0));
    ASSERT_EQ(hit.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "a hit is answered before submit() returns";
    EXPECT_EQ(hit.get().status, ResponseStatus::Ok);
    EXPECT_EQ(registry.counter("svc/requests").value(), requestsBefore + 1);
    EXPECT_EQ(registry.counter("svc/cache_hits").value(), hitsBefore + 1);

    {
      std::lock_guard<std::mutex> lock(mutex);
      released = true;
    }
    cv.notify_all();
    EXPECT_EQ(filler.get().status, ResponseStatus::Ok);
  }
  obs::setEnabled(wasEnabled);
  registry.reset();
}

TEST(Session, SinkRunsOnOneThreadAtATimeAndHitsOnTheCallingThread) {
  // Hits are emitted by the consumeLine() thread, evaluated requests by
  // exec lanes; whichever drains, the sink is never entered twice at once.
  exec::setGlobalThreadCount(8);
  Service service;
  std::atomic<int> inSink{0};
  std::atomic<int> overlaps{0};
  std::mutex mutex;
  std::set<std::thread::id> sinkThreads;
  std::vector<std::string> lines;
  {
    Session session(
        service, ServerOptions{},
        [&](std::string&& line) {
          if (inSink.fetch_add(1) != 0) overlaps.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          {
            std::lock_guard<std::mutex> lock(mutex);
            sinkThreads.insert(std::this_thread::get_id());
            lines.push_back(std::move(line));
          }
          inSink.fetch_sub(1);
        },
        service.newSessionId());
    // Warm one key, then interleave its hits with fresh misses.
    session.consumeLine(R"({"id":"w","kind":"wire"})");
    ASSERT_TRUE([&] {
      for (int i = 0; i < 5000 && session.pendingResponses() != 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return session.pendingResponses() == 0;
    }());
    const std::thread::id caller = std::this_thread::get_id();
    {
      std::lock_guard<std::mutex> lock(mutex);
      sinkThreads.clear();
    }
    session.consumeLine(R"({"id":"h0","kind":"wire"})");
    {
      std::lock_guard<std::mutex> lock(mutex);
      ASSERT_EQ(sinkThreads.size(), 1u) << "an idle session's hit goes out at once";
      EXPECT_EQ(*sinkThreads.begin(), caller);
    }
    for (int i = 1; i <= 40; ++i) {
      session.consumeLine(R"({"id":"m)" + std::to_string(i) +
                          R"(","kind":"wire","params":{"width_multiple":)" +
                          std::to_string(1.0 + 0.1 * i) + "}}");
      session.consumeLine(R"({"id":"h)" + std::to_string(i) +
                          R"(","kind":"wire"})");
    }
    const ServerStats stats = session.finish();
    EXPECT_EQ(stats.ok, 82u);
  }
  exec::setGlobalThreadCount(exec::defaultThreadCount());
  EXPECT_EQ(overlaps.load(), 0);
  ASSERT_EQ(lines.size(), 82u);
  for (int i = 1; i <= 40; ++i) {
    const std::size_t at = static_cast<std::size_t>(2 * i);
    EXPECT_EQ(lines[at].rfind(R"({"id":"m)" + std::to_string(i) + "\"", 0), 0u)
        << lines[at];
    EXPECT_EQ(lines[at + 1].rfind(R"({"id":"h)" + std::to_string(i) + "\"", 0), 0u)
        << lines[at + 1];
  }
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

/// Settings that keep each kind's evaluation small, so a fuzzed line that
/// happens to be valid stays cheap (the fuzzed field overrides them).
JsonValue cheapParams(RequestKind kind) {
  JsonValue params = JsonValue::object();
  switch (kind) {
    case RequestKind::Sta:
      params.set("gates", 200);
      break;
    case RequestKind::Scenario:
    case RequestKind::ScenarioSweep:
      params.set("steps", 20);
      params.set("gates", 200);
      if (kind == RequestKind::ScenarioSweep) {
        params.set("axis_a", 2);
        params.set("axis_b", 2);
      }
      break;
    case RequestKind::GridSolve:
      params.set("subdivisions", 4);
      break;
    case RequestKind::DesignGrid:
    case RequestKind::DesignOptimum:
      params.set("vdd_steps", 4);
      params.set("vth_steps", 4);
      break;
    default:
      break;
  }
  return params;
}

/// The bump pitch past which a grid_solve at node `nodeNm` is invalid.
double dieEdgeUm(int nodeNm) {
  return std::sqrt(tech::nodeByFeature(nodeNm).dieArea) / 1e-6;
}

/// Whether validateParams must reject `value` for `field` as outside its
/// physical range (the node is the default 35 nm).
bool outsidePhysicalRange(const std::string& field, double value) {
  if (field == "vdd" || field == "vdd_min") {
    return !(value > 0.0 && value <= 5.0);
  }
  if (field == "vth" || field == "vth_min" || field == "vth_max") {
    return !(value >= -0.5 && value <= 1.0);
  }
  if (field == "activity") return !(value >= 0.0 && value <= 1.0);
  if (field == "width_multiple") return value > 100.0;
  if (field == "pad_pitch_um") return value < 0.0 || value > dieEdgeUm(35);
  return false;
}

bool hasNull(const JsonValue& v) {
  if (v.isNull()) return true;
  if (v.isArray()) {
    return std::any_of(v.items().begin(), v.items().end(), hasNull);
  }
  if (v.isObject()) {
    return std::any_of(v.members().begin(), v.members().end(),
                       [](const auto& m) { return hasNull(m.second); });
  }
  return false;
}

TEST(RunServer, EveryParamOfEveryKindFuzzedGetsOneStructuredReplyEach) {
  // Every field of every kind, set in turn to each wrong JSON type, a
  // non-integral and an out-of-range integer, +-1e300, 0 and a negative
  // value. Whatever the verdict, each line gets exactly one reply, in
  // order, with a status — never a throw, a hang or a crash. A number
  // outside a field's physical range is answered invalid. An ok reply
  // (stats aside) holds no null, which is how a non-finite number
  // prints, and a grid_solve drop stays below the supply.
  const std::vector<JsonValue> values = {
      JsonValue::string("x"), JsonValue::boolean(true), JsonValue::null(),
      JsonValue::array(),     JsonValue::object(),      JsonValue::number(1.5),
      JsonValue::number(1e10), JsonValue::number(1e300),
      JsonValue::number(-1e300), JsonValue::number(0), JsonValue::number(-1)};
  std::string input;
  std::vector<std::string> ids;
  std::vector<bool> mustBeInvalid;
  std::vector<RequestKind> kinds;
  for (int i = 0; i < kRequestKindCount; ++i) {
    const auto kind = static_cast<RequestKind>(i);
    const JsonValue defaults = paramsJson(defaultParams(kind));
    for (const auto& [field, unused] : defaults.members()) {
      for (const JsonValue& value : values) {
        JsonValue params = cheapParams(kind);
        params.set(field, value);
        mustBeInvalid.push_back(value.isNumber() &&
                                outsidePhysicalRange(field, value.asNumber()));
        kinds.push_back(kind);
        std::string id = "f";
        id += std::to_string(ids.size());
        JsonValue line = JsonValue::object();
        line.set("id", id);
        line.set("kind", kindName(kind));
        line.set("params", std::move(params));
        ids.push_back(std::move(id));
        input += line.write();
        input.push_back('\n');
      }
    }
  }
  std::istringstream in(input);
  std::ostringstream out;
  Service service(replayOptions());
  const ServerStats stats = runServer(in, out, service);
  EXPECT_EQ(stats.lines, ids.size());
  EXPECT_EQ(stats.ok + stats.errors + stats.invalid, ids.size());
  EXPECT_GT(stats.ok, 0u);
  EXPECT_GT(stats.invalid, 0u);
  const std::vector<std::string> lines = splitLines(out.str());
  ASSERT_EQ(lines.size(), ids.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const JsonValue reply = parseJson(lines[i]);
    ASSERT_TRUE(reply.isObject()) << lines[i];
    ASSERT_NE(reply.find("id"), nullptr) << lines[i];
    EXPECT_EQ(reply.find("id")->asString(), ids[i]);
    ASSERT_NE(reply.find("status"), nullptr) << lines[i];
    if (mustBeInvalid[i]) {
      EXPECT_EQ(reply.find("status")->asString(), "invalid") << lines[i];
    }
    if (reply.find("status")->asString() != "ok" ||
        kinds[i] == RequestKind::Stats) {
      continue;
    }
    EXPECT_FALSE(hasNull(reply)) << lines[i];
    if (kinds[i] == RequestKind::GridSolve) {
      EXPECT_LT(reply.find("data")->find("max_drop_fraction")->asNumber(),
                1.0)
          << lines[i];
    }
  }
}

TEST(RunServer, PhysicalRangesRejectJustOutsideAndAnswerFiniteJustInside) {
  // Each end of each bounded param, 1e-3 outside, at the end itself, and
  // 1e-3 inside, at the slowest and the fastest node. Outside is invalid
  // and names the field; the end of a closed range is not invalid; inside
  // answers ok with every number finite (non-finite numbers print null).
  // The one exception is a pad pitch just inside the die edge: its mesh
  // drop (kilovolts) is far above the supply, so it answers error naming
  // the drop.
  struct End {
    const char* kind;
    const char* field;
    double bound;
    double inward;  ///< +1 when the range lies above the bound, -1 below
    bool closed;
  };
  std::vector<End> ends;
  for (const char* kind : {"design_point", "design_grid", "design_optimum",
                           "figure34"}) {
    const bool point = std::string(kind) == "design_point";
    const char* supply = point ? "vdd" : "vdd_min";
    ends.push_back({kind, supply, 0.0, +1.0, false});
    ends.push_back({kind, supply, 5.0, -1.0, true});
    ends.push_back({kind, "activity", 0.0, +1.0, true});
    ends.push_back({kind, "activity", 1.0, -1.0, true});
    if (std::string(kind) == "figure34") continue;
    for (const char* vth : {"vth", "vth_min", "vth_max"}) {
      if (point != (std::string(vth) == "vth")) continue;
      ends.push_back({kind, vth, -0.5, +1.0, true});
      ends.push_back({kind, vth, 1.0, -1.0, true});
    }
  }
  for (const char* kind : {"wire", "repeater", "grid_solve"}) {
    ends.push_back({kind, "width_multiple", 100.0, -1.0, true});
  }
  for (const int nodeNm : {180, 35}) {
    std::string input;
    struct Expect {
      std::string field;
      int where;  ///< -1 outside, 0 at the end, +1 inside, 2 model error
    };
    std::vector<Expect> expects;
    auto add = [&](const char* kind, const char* field, double value,
                   int where) {
      JsonValue params = JsonValue::object();
      params.set("node_nm", nodeNm);
      const std::string k = kind;
      if (k == "design_grid" || k == "design_optimum") {
        params.set("vdd_steps", 4);
        params.set("vth_steps", 4);
      }
      if (k == "design_optimum") params.set("delay_target", 1e10);
      if (k == "figure34") params.set("points", 3);
      if (k == "grid_solve") params.set("subdivisions", 4);
      params.set(field, value);
      JsonValue line = JsonValue::object();
      line.set("id", "b" + std::to_string(expects.size()));
      line.set("kind", kind);
      line.set("params", std::move(params));
      input += line.write();
      input.push_back('\n');
      expects.push_back({field, where});
    };
    for (const End& e : ends) {
      add(e.kind, e.field, e.bound - 1e-3 * e.inward, -1);
      if (e.closed) add(e.kind, e.field, e.bound, 0);
      add(e.kind, e.field, e.bound + 1e-3 * e.inward, +1);
    }
    const double edge = dieEdgeUm(nodeNm);
    add("grid_solve", "pad_pitch_um", -1e-3, -1);
    add("grid_solve", "pad_pitch_um", 0.0, 0);
    add("grid_solve", "pad_pitch_um", 1e-3, +1);
    add("grid_solve", "pad_pitch_um", edge + 1e-3, -1);
    add("grid_solve", "pad_pitch_um", edge, 0);
    add("grid_solve", "pad_pitch_um", edge - 1e-3, 2);
    expects.back().field = "max_drop";

    std::istringstream in(input);
    std::ostringstream out;
    Service service(replayOptions());
    (void)runServer(in, out, service);
    const std::vector<std::string> lines = splitLines(out.str());
    ASSERT_EQ(lines.size(), expects.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const JsonValue reply = parseJson(lines[i]);
      const std::string status = reply.find("status")->asString();
      if (expects[i].where < 0) {
        EXPECT_EQ(status, "invalid") << lines[i];
        EXPECT_NE(lines[i].find(expects[i].field), std::string::npos)
            << lines[i];
      } else if (expects[i].where == 0) {
        EXPECT_NE(status, "invalid") << lines[i];
      } else if (expects[i].where == 2) {
        EXPECT_EQ(status, "error") << lines[i];
        EXPECT_NE(lines[i].find(expects[i].field), std::string::npos)
            << lines[i];
      } else {
        EXPECT_EQ(status, "ok") << lines[i];
        EXPECT_FALSE(hasNull(reply)) << lines[i];
      }
    }
  }
}

TEST(RunServer, NonFiniteOrOutOfModelAnswersAreErrorsNamingTheField) {
  // Inputs inside every param bound where the model still has no finite
  // or no small-drop answer: a 1e-300 wire width (0 x inf capacitances),
  // zero activity (0/0 dynamic power), and a pad pitch whose mesh drop is
  // kilovolts at 35 nm.
  std::istringstream in(
      R"({"id":"w","kind":"wire","params":{"width_multiple":1e-300}})"
      "\n"
      R"({"id":"p","kind":"design_point","params":{"activity":0}})"
      "\n"
      R"({"id":"g","kind":"design_grid","params":{"activity":0,)"
      R"("vdd_steps":3,"vth_steps":3}})"
      "\n"
      R"({"id":"o","kind":"design_optimum","params":{"activity":0,)"
      R"("vdd_steps":3,"vth_steps":3}})"
      "\n"
      R"({"id":"d","kind":"grid_solve","params":{"pad_pitch_um":18000}})"
      "\n"
      R"({"id":"f","kind":"figure34","params":{"activity":0,"points":3}})"
      "\n");
  std::ostringstream out;
  Service service(replayOptions());
  (void)runServer(in, out, service);
  const std::vector<std::string> lines = splitLines(out.str());
  ASSERT_EQ(lines.size(), 6u);
  const char* named[] = {"coupling_cap_ff_per_mm", "pdyn_norm",
                         "points[0].pdyn_norm", "pdyn_norm",
                         "max_drop_fraction"};
  for (std::size_t i = 0; i < 5; ++i) {
    const JsonValue reply = parseJson(lines[i]);
    EXPECT_EQ(reply.find("status")->asString(), "error") << lines[i];
    EXPECT_NE(reply.find("error")->asString().find(named[i]),
              std::string::npos)
        << lines[i];
  }
  // figure34 answers zero activity finitely, so it stays ok.
  EXPECT_NE(lines[5].find(R"("status":"ok")"), std::string::npos) << lines[5];
  EXPECT_FALSE(hasNull(parseJson(lines[5]))) << lines[5];
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

TEST(RunServer, GridSolveThatDetectsNanAnswersErrorNamingTheStatus) {
  // A rail 1e-300 times the minimum width has no conductance to speak
  // of: the solve stops with status nan-detected, and its all-zero drop
  // must not be answered ok.
  std::istringstream in(
      R"({"id":"nan","kind":"grid_solve","params":{"width_multiple":1e-300}})"
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
  EXPECT_NE(lines[0].find(R"("status":"error")"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("nan-detected"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find(R"("status":"ok")"), std::string::npos);
}

TEST(RunServer, NegativePadPitchIsInvalidAndZeroKeepsTheNodeMinimum) {
  // 0 selects the node's minimum bump pitch, exactly as leaving the field
  // out does; a negative pitch used to mean the same and is now invalid.
  std::istringstream in(
      R"({"id":"neg","kind":"grid_solve","params":{"pad_pitch_um":-1}})"
      "\n"
      R"({"id":"zero","kind":"grid_solve","params":{"pad_pitch_um":0}})"
      "\n"
      R"({"id":"unset","kind":"grid_solve"})"
      "\n");
  std::ostringstream out;
  Service service(replayOptions());
  const ServerStats stats = runServer(in, out, service);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.ok, 2u);
  const std::vector<std::string> lines = splitLines(out.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find(R"("status":"invalid")"), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("pad_pitch_um"), std::string::npos) << lines[0];
  const std::string zeroId = R"({"id":"zero")";
  const std::string unsetId = R"({"id":"unset")";
  ASSERT_EQ(lines[1].rfind(zeroId, 0), 0u) << lines[1];
  ASSERT_EQ(lines[2].rfind(unsetId, 0), 0u) << lines[2];
  EXPECT_NE(lines[1].find(R"("status":"ok")"), std::string::npos);
  EXPECT_EQ(lines[1].substr(zeroId.size()), lines[2].substr(unsetId.size()));
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
