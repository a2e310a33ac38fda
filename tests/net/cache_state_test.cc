// The cache-state oracle: SERVICE.md promises the same response bytes
// "regardless of lane count or cache state". Two request streams — the
// committed golden trace and a seeded mixed stream — are replayed through
// the stdin pipeline (runServer) and through NetServer over the mock
// socket layer with four clients, with the result cache disabled (0
// entries), thrashing (16 entries over 8 shards: constant evictions) and
// roomy (4096), each at 1, 2 and 8 exec lanes. Every output must equal
// the cache-0, one-lane stdin replay byte for byte.
//
// The mixed stream holds every kind except `stats` (whose payload is live
// process state): fresh queries, ~40% repeats of earlier ones (some sent
// back to back, so over sockets the same key arrives on two connections
// at once), invalid lines, deterministic errors, `deadline_ms: 0` on keys
// that are already cached, and all three priorities.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "net/server.h"
#include "support/mock_socket.h"
#include "svc/server.h"
#include "util/rng.h"

namespace nano::net {
namespace {

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string readFileOrFail(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string fmt(const char* format, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// The params object (with its "params": prefix) and kind of one fresh
/// query, drawn from small, cheap variants of every non-stats kind.
std::string freshQuery(util::Rng& rng) {
  static const int kNodes[] = {35, 50, 70, 100, 130, 180};
  const int node = kNodes[rng.uniformInt(0, 5)];
  switch (rng.uniformInt(0, 14)) {
    case 0:
      return R"("kind":"figure1","params":{"points":)" +
             std::to_string(rng.uniformInt(3, 9)) + "}";
    case 1:
      return R"("kind":"figure2")";
    case 2:
      return R"("kind":"figure34","params":{"node_nm":)" +
             std::to_string(node) + R"(,"points":)" +
             std::to_string(rng.uniformInt(3, 7)) + "}";
    case 3:
      return rng.bernoulli(0.5) ? R"("kind":"figure5")"
                                : R"("kind":"figure5","params":{"mesh_check":true})";
    case 4:
      return R"("kind":"table2")";
    case 5:
      return R"("kind":"design_point","params":{"node_nm":)" +
             std::to_string(node) + R"(,"vdd":)" +
             fmt("%.3f", rng.uniform(0.3, 1.0)) + R"(,"vth":)" +
             fmt("%.3f", rng.uniform(0.05, 0.3)) + "}";
    case 6:
      return R"("kind":"design_grid","params":{"vdd_steps":)" +
             std::to_string(rng.uniformInt(2, 5)) + R"(,"vth_steps":)" +
             std::to_string(rng.uniformInt(2, 5)) + "}";
    case 7:
      return R"("kind":"design_optimum","params":{"vdd_steps":4,"vth_steps":4,"delay_target":)" +
             fmt("%.2f", rng.uniform(1.0, 1.5)) + "}";
    case 8:
      return R"("kind":"repeater","params":{"node_nm":)" +
             std::to_string(node) + R"(,"width_multiple":)" +
             std::to_string(rng.uniformInt(1, 4)) + "}";
    case 9:
      return R"("kind":"wire","params":{"width_multiple":)" +
             fmt("%.2f", rng.uniform(1.0, 6.0)) + R"(,"match_spacing":)" +
             (rng.bernoulli(0.5) ? "true" : "false") + "}";
    case 10: {
      static const char* kPreconditioners[] = {"auto", "jacobi", "multigrid"};
      return R"("kind":"grid_solve","params":{"subdivisions":)" +
             std::to_string(rng.uniformInt(2, 4)) +
             R"(,"preconditioner":")" + kPreconditioners[rng.uniformInt(0, 2)] +
             "\"}";
    }
    case 11:
      // 90 nm is not a roadmap node: a deterministic, cached error.
      return R"("kind":"node_summary","params":{"node_nm":)" +
             std::to_string(rng.bernoulli(0.2) ? 90 : node) + "}";
    case 12:
      return R"("kind":"sta","params":{"gates":)" +
             std::to_string(rng.uniformInt(64, 600)) + R"(,"seed":)" +
             std::to_string(rng.uniformInt(1, 3)) + "}";
    case 13: {
      static const char* kScenarios[] = {"dtm", "dvfs", "wakeup"};
      return R"("kind":"scenario","params":{"scenario":")" +
             std::string(kScenarios[rng.uniformInt(0, 2)]) +
             R"(","steps":)" + std::to_string(rng.uniformInt(50, 200)) +
             R"(,"gates":200})";
    }
    default:
      return R"("kind":"scenario_sweep","params":{"steps":)" +
             std::to_string(rng.uniformInt(40, 80)) +
             R"(,"gates":200,"axis_a":2,"axis_b":2})";
  }
}

/// Seeded mixed stream of `count` request lines (see the file comment).
std::vector<std::string> mixedStream(std::uint64_t seed, int count) {
  static const char* kPriorities[] = {"", R"("priority":"high",)",
                                      R"("priority":"normal",)",
                                      R"("priority":"low",)"};
  util::Rng rng(seed);
  std::vector<std::string> queries;  // every query sent so far
  std::vector<std::string> lines;
  auto emit = [&](const std::string& prefix, const std::string& query) {
    lines.push_back("{\"id\":\"m" + std::to_string(lines.size()) + "\"," +
                    prefix + query + "}");
  };
  auto priority = [&] { return std::string(kPriorities[rng.uniformInt(0, 3)]); };
  while (static_cast<int>(lines.size()) < count) {
    const double roll = rng.uniform();
    if (roll < 0.06) {
      lines.push_back(rng.bernoulli(0.5)
                          ? std::string("not json at all")
                          : R"({"id":"bad","kind":"wire","params":{"width":2}})");
    } else if (roll < 0.12 && !queries.empty()) {
      // An expired deadline on a key already asked (and usually cached).
      const std::string& query =
          queries[static_cast<std::size_t>(rng.uniformInt(
              0, static_cast<int>(queries.size()) - 1))];
      emit(priority() + R"("deadline_ms":0,)", query);
    } else if (roll < 0.52 && !queries.empty()) {
      const std::string query = queries[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<int>(queries.size()) - 1))];
      emit(priority(), query);
    } else {
      const std::string query = freshQuery(rng);
      queries.push_back(query);
      emit(priority(), query);
      // A twin right behind it: over sockets it lands on the next client,
      // so the same key is in flight on two connections at once.
      if (rng.bernoulli(0.25)) emit(priority(), query);
    }
  }
  lines.resize(static_cast<std::size_t>(count));
  return lines;
}

std::string joinLines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

svc::ServiceOptions serviceWithCache(std::size_t entries, bool block) {
  svc::ServiceOptions options;
  options.cacheEntries = entries;
  options.blockWhenFull = block;
  return options;
}

std::string replayStdin(const std::string& input, std::size_t cacheEntries) {
  std::istringstream in(input);
  std::ostringstream out;
  svc::Service service(serviceWithCache(cacheEntries, /*block=*/true));
  svc::runServer(in, out, service);
  return out.str();
}

/// Deal `lines` round-robin over `clients` mock TCP connections and return
/// what each client received.
std::vector<std::string> replaySockets(const std::vector<std::string>& lines,
                                       std::size_t cacheEntries, int clients) {
  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::Service service(serviceWithCache(cacheEntries, /*block=*/false));
  NetServerOptions options;
  options.tcpPort = 0;
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  EXPECT_TRUE(server.start(error)) << error;
  std::vector<int> fds;
  for (int c = 0; c < clients; ++c) fds.push_back(mock.connectTcp(server.tcpPort()));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    mock.clientSend(fds[i % fds.size()], lines[i] + "\n");
  }
  for (const int fd : fds) mock.clientCloseWrite(fd);
  std::vector<std::string> received;
  for (const int fd : fds) received.push_back(mock.clientReadAll(fd));
  server.stop();
  return received;
}

/// Replay `lines` at every cache size and lane count, over stdin and over
/// four socket clients, against the cache-0, one-lane stdin replay, which
/// it returns.
std::string expectSameBytesEverywhere(const std::vector<std::string>& lines) {
  constexpr int kClients = 4;
  const std::string input = joinLines(lines);
  exec::setGlobalThreadCount(1);
  const std::string reference = replayStdin(input, 0);
  const std::vector<std::string> referenceLines = splitLines(reference);
  EXPECT_EQ(referenceLines.size(), lines.size());
  std::vector<std::string> dealt(kClients);
  for (std::size_t i = 0; i < referenceLines.size(); ++i) {
    dealt[i % kClients] += referenceLines[i] + "\n";
  }

  for (const std::size_t cache : {std::size_t{0}, std::size_t{16}, std::size_t{4096}}) {
    for (const int lanes : {1, 2, 8}) {
      SCOPED_TRACE("cache=" + std::to_string(cache) +
                   " lanes=" + std::to_string(lanes));
      exec::setGlobalThreadCount(lanes);
      EXPECT_EQ(replayStdin(input, cache), reference) << "stdin replay";
      const std::vector<std::string> received =
          replaySockets(lines, cache, kClients);
      for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(received[static_cast<std::size_t>(c)],
                  dealt[static_cast<std::size_t>(c)])
            << "socket client " << c;
      }
    }
  }
  exec::setGlobalThreadCount(exec::defaultThreadCount());
  return reference;
}

TEST(CacheStateOracle, GoldenTraceSameBytesAtEveryCacheSizeAndLaneCount) {
  const std::string golden =
      readFileOrFail(std::string(NANO_GOLDEN_DIR) + "/nanod_replay.jsonl");
  const std::vector<std::string> trace = splitLines(
      readFileOrFail(std::string(NANO_GOLDEN_DIR) + "/nanod_trace.jsonl"));
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(expectSameBytesEverywhere(trace), golden);
}

TEST(CacheStateOracle, MixedStreamSameBytesAtEveryCacheSizeAndLaneCount) {
  const std::vector<std::string> stream = mixedStream(20011, 160);
  const std::string reference = expectSameBytesEverywhere(stream);
  // The stream exercises what it claims to: every status but shed, and
  // every priority.
  for (const char* status : {"ok", "error", "invalid", "timeout"}) {
    EXPECT_NE(reference.find(std::string(R"("status":")") + status + "\""),
              std::string::npos)
        << status;
  }
  for (const char* priority : {"high", "normal", "low"}) {
    EXPECT_NE(joinLines(stream).find(std::string(R"("priority":")") + priority),
              std::string::npos)
        << priority;
  }
}

}  // namespace
}  // namespace nano::net
