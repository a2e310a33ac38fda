// Multi-client behavior of the socket front end, run entirely over the
// in-memory SocketOps mock so it is deterministic and TSan-friendly:
//   - N clients replaying interleaved slices of the committed golden
//     trace each get byte-identical responses at 1/2/8 exec lanes, over
//     TCP and Unix transports;
//   - identical requests from different connections dedup to one compute
//     (svc/cache_misses == 1 for the key, svc/dedup_joins > 0);
//   - past --max-clients a connection gets one structured shed line;
//   - idle connections close gracefully after the timeout;
//   - a client that stops reading is disconnected once its write queue
//     exceeds the bound (memory stays bounded under overload);
//   - a tiny emit-queue limit pauses reads (backpressure) without
//     changing a single output byte;
//   - input edges: an unterminated last line, an oversize line, and
//     garbage lines are framed and answered exactly as the stdin server
//     answers them.
#include "net/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec.h"
#include "obs/obs.h"
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

/// Spin until `predicate` holds or ~5s pass. Mock-driven servers settle in
/// microseconds; the margin is for sanitizer builds.
template <typename Predicate>
bool waitFor(Predicate predicate, int timeoutMs = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeoutMs);
  while (!predicate()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::int64_t counterValue(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

class NetServerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::setEnabled(wasEnabled_);
    obs::MetricsRegistry::instance().reset();
    exec::setGlobalThreadCount(exec::defaultThreadCount());
  }
  void enableMetrics() {
    wasEnabled_ = obs::enabled();
    obs::setEnabled(true);
    obs::MetricsRegistry::instance().reset();
  }
  bool wasEnabled_ = false;
};

// ------------------------------------------------- golden trace slices

/// Replay the committed golden trace through `clients` concurrent
/// connections, dealing lines round-robin, and require every client's
/// response stream to equal its slice of the golden replay byte for byte.
void replayGoldenSlices(int clients, int threads, bool unixTransport) {
  SCOPED_TRACE("clients=" + std::to_string(clients) +
               " threads=" + std::to_string(threads) +
               (unixTransport ? " unix" : " tcp"));
  exec::setGlobalThreadCount(threads);
  const std::vector<std::string> trace = splitLines(
      readFileOrFail(std::string(NANO_GOLDEN_DIR) + "/nanod_trace.jsonl"));
  const std::vector<std::string> golden = splitLines(
      readFileOrFail(std::string(NANO_GOLDEN_DIR) + "/nanod_replay.jsonl"));
  ASSERT_FALSE(trace.empty());
  ASSERT_EQ(trace.size(), golden.size());

  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::Service service;  // shed-not-block: the socket default
  NetServerOptions options;
  if (unixTransport) {
    options.unixPath = "/tmp/net-test.sock";
  } else {
    options.tcpPort = 0;
  }
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  std::vector<int> fds(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    fds[static_cast<std::size_t>(c)] =
        unixTransport ? mock.connectUnix(options.unixPath)
                      : mock.connectTcp(server.tcpPort());
    ASSERT_GE(fds[static_cast<std::size_t>(c)], 0);
  }

  // Deal lines round-robin, splitting every third send mid-line so the
  // framing layer sees partial reads interleaved across connections.
  std::vector<std::string> expected(static_cast<std::size_t>(clients));
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::size_t c = i % static_cast<std::size_t>(clients);
    const std::string line = trace[i] + "\n";
    if (i % 3 == 0 && line.size() > 4) {
      mock.clientSend(fds[c], std::string_view(line).substr(0, 4));
      mock.clientSend(fds[c], std::string_view(line).substr(4));
    } else {
      mock.clientSend(fds[c], line);
    }
    expected[c] += golden[i] + "\n";
  }
  for (const int fd : fds) mock.clientCloseWrite(fd);
  for (int c = 0; c < clients; ++c) {
    const std::size_t idx = static_cast<std::size_t>(c);
    EXPECT_EQ(mock.clientReadAll(fds[idx]), expected[idx])
        << "client " << c << " diverged from its golden slice";
  }

  server.stop();
  EXPECT_EQ(server.stats().accepted, static_cast<std::size_t>(clients));
  EXPECT_EQ(server.stats().closes, static_cast<std::size_t>(clients));
  EXPECT_EQ(server.stats().sessions.lines, trace.size());
  EXPECT_EQ(server.stats().shedConnections, 0u);
}

TEST_F(NetServerTest, FourTcpClientsMatchGoldenSlicesAtEveryLaneCount) {
  for (const int threads : {1, 2, 8}) replayGoldenSlices(4, threads, false);
}

TEST_F(NetServerTest, EightUnixClientsMatchGoldenSlices) {
  replayGoldenSlices(8, 2, true);
}

TEST_F(NetServerTest, TcpAndUnixListenersServeSideBySide) {
  exec::setGlobalThreadCount(2);
  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::Service service;
  NetServerOptions options;
  options.tcpPort = 0;
  options.unixPath = "/tmp/net-both.sock";
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  const int tcpFd = mock.connectTcp(server.tcpPort());
  const int unixFd = mock.connectUnix(options.unixPath);
  ASSERT_GE(tcpFd, 0);
  ASSERT_GE(unixFd, 0);
  const std::string request = R"({"id":"r","kind":"wire"})" "\n";
  mock.clientSend(tcpFd, request);
  mock.clientSend(unixFd, request);
  mock.clientCloseWrite(tcpFd);
  mock.clientCloseWrite(unixFd);
  const std::string a = mock.clientReadAll(tcpFd);
  const std::string b = mock.clientReadAll(unixFd);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "transports must not change response bytes";
  server.stop();
  EXPECT_EQ(server.stats().accepted, 2u);
}

// ------------------------------------------------- cross-client dedup

TEST_F(NetServerTest, IdenticalRequestsAcrossClientsComputeOnceAndJoin) {
  enableMetrics();
  exec::setGlobalThreadCount(2);
  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::Service service;
  NetServerOptions options;
  options.tcpPort = 0;
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  constexpr int kClients = 8;
  std::vector<int> fds(kClients);
  for (int c = 0; c < kClients; ++c) {
    fds[static_cast<std::size_t>(c)] = mock.connectTcp(server.tcpPort());
    ASSERT_GE(fds[static_cast<std::size_t>(c)], 0);
  }

  // An expensive (~40ms) evaluation. The plug occupies the batcher so the
  // identical requests that follow pile into one batch together; within
  // that batch one lane computes while the other joins in flight.
  const std::string plug =
      R"({"id":"plug","kind":"design_grid","params":{"vdd_steps":60,"vth_steps":60}})"
      "\n";
  const std::string dup =
      R"({"id":"dup","kind":"design_grid","params":{"vdd_steps":59,"vth_steps":59}})"
      "\n";
  mock.clientSend(fds[0], plug);
  // Wait until the plug's compute has started (its cache miss is counted
  // at evaluation entry), so the duplicates all queue behind it.
  ASSERT_TRUE(waitFor([] { return counterValue("svc/cache_misses") >= 1; }));
  for (int c = 0; c < kClients; ++c) {
    for (int copy = 0; copy < 4; ++copy) {
      mock.clientSend(fds[static_cast<std::size_t>(c)], dup);
    }
  }
  for (const int fd : fds) mock.clientCloseWrite(fd);

  const std::string first = mock.clientReadAll(fds[0]);
  const std::vector<std::string> firstLines = splitLines(first);
  ASSERT_EQ(firstLines.size(), 5u);  // plug + 4 dups
  const std::string dupResponse = firstLines[1];
  EXPECT_EQ(firstLines[2], dupResponse);
  for (int c = 1; c < kClients; ++c) {
    const std::vector<std::string> lines =
        splitLines(mock.clientReadAll(fds[static_cast<std::size_t>(c)]));
    ASSERT_EQ(lines.size(), 4u);
    for (const std::string& line : lines) {
      EXPECT_EQ(line, dupResponse)
          << "dedup/cache reuse must not change bytes";
    }
  }
  server.stop();

  // 32 copies of the dup across 8 connections: exactly one compute; at
  // least one other copy joined it in flight rather than recomputing.
  EXPECT_EQ(counterValue("svc/cache_misses"), 2);  // plug + one dup
  EXPECT_GT(counterValue("svc/dedup_joins"), 0);
  EXPECT_EQ(server.stats().sessions.ok, 33u);
}

// ------------------------------------------------------ admission limit

TEST_F(NetServerTest, ConnectionsPastMaxClientsGetOneStructuredShedLine) {
  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::Service service;
  NetServerOptions options;
  options.tcpPort = 0;
  options.maxClients = 1;
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  const int kept = mock.connectTcp(server.tcpPort());
  ASSERT_GE(kept, 0);
  ASSERT_TRUE(waitFor([&] { return server.activeConnections() == 1; }));

  const int shed = mock.connectTcp(server.tcpPort());
  ASSERT_GE(shed, 0);
  EXPECT_EQ(mock.clientReadAll(shed),
            "{\"id\":\"\",\"status\":\"shed\","
            "\"error\":\"max clients (1 connections)\"}\n");
  EXPECT_TRUE(mock.serverClosed(shed));

  // The admitted connection is unaffected.
  mock.clientSend(kept, R"({"id":"r","kind":"wire"})" "\n");
  mock.clientCloseWrite(kept);
  EXPECT_NE(mock.clientReadAll(kept).find(R"("status":"ok")"),
            std::string::npos);
  server.stop();
  EXPECT_EQ(server.stats().accepted, 1u);
  EXPECT_EQ(server.stats().shedConnections, 1u);
}

// --------------------------------------------------------- idle timeout

TEST_F(NetServerTest, IdleConnectionsCloseGracefullyAfterTimeout) {
  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::Service service;
  NetServerOptions options;
  options.tcpPort = 0;
  options.idleTimeoutMs = 50;
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  const int fd = mock.connectTcp(server.tcpPort());
  ASSERT_GE(fd, 0);
  // Activity resets the clock: the response still arrives.
  mock.clientSend(fd, R"({"id":"r","kind":"wire"})" "\n");
  std::string got;
  ASSERT_TRUE(mock.clientRead(fd, got, 5000));
  EXPECT_NE(got.find(R"("status":"ok")"), std::string::npos);

  // Then silence: the server closes its side without being asked.
  EXPECT_TRUE(waitFor([&] { return mock.serverClosed(fd); }));
  ASSERT_TRUE(waitFor([&] { return server.activeConnections() == 0; }));
  server.stop();
  EXPECT_EQ(server.stats().idleCloses, 1u);
  EXPECT_EQ(server.stats().closes, 1u);
}

// ------------------------------------------------ slow-client shedding

TEST_F(NetServerTest, NonReadingClientIsDisconnectedAtWriteBufferBound) {
  enableMetrics();
  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::Service service;
  NetServerOptions options;
  options.tcpPort = 0;
  // The client's "kernel buffer" holds 64 bytes and it never reads; the
  // server may pin at most ~256 bytes of responses for it.
  options.maxWriteBufferBytes = 256;
  mock.setClientRecvCapacity(64);
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  const int fd = mock.connectTcp(server.tcpPort());
  ASSERT_GE(fd, 0);
  for (int i = 0; i < 20; ++i) {
    mock.clientSend(fd, R"({"id":"r)" + std::to_string(i) +
                            R"(","kind":"wire"})" "\n");
  }
  // Without ever reading, the connection must be dropped.
  EXPECT_TRUE(waitFor([&] { return mock.serverClosed(fd); }));
  ASSERT_TRUE(waitFor([&] { return server.activeConnections() == 0; }));
  server.stop();
  EXPECT_EQ(server.stats().slowClientCloses, 1u);
  EXPECT_EQ(counterValue("net/slow_client_closes"), 1);
}

// ------------------------------------------- emit-queue backpressure

TEST_F(NetServerTest, TinyEmitQueuePausesReadsWithoutChangingOneByte) {
  enableMetrics();
  exec::setGlobalThreadCount(2);
  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::Service service;
  NetServerOptions options;
  options.tcpPort = 0;
  options.session.emitQueueLimit = 2;
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  std::string burst;
  for (int i = 0; i < 30; ++i) {
    burst += R"({"id":"b)" + std::to_string(i) +
             R"(","kind":"wire","params":{"width_multiple":)" +
             std::to_string(1.0 + 0.1 * i) + "}}\n";
  }
  const int fd = mock.connectTcp(server.tcpPort());
  ASSERT_GE(fd, 0);
  mock.clientSend(fd, burst);
  mock.clientCloseWrite(fd);
  const std::string socketOut = mock.clientReadAll(fd);
  server.stop();

  EXPECT_GT(counterValue("net/read_pauses"), 0)
      << "a 30-line burst against a 2-deep emit queue must pause reads";
  EXPECT_EQ(server.stats().sessions.lines, 30u);
  EXPECT_EQ(server.stats().sessions.ok, 30u);

  // Byte-compare against the stdin pipeline on a fresh service.
  std::istringstream in(burst);
  std::ostringstream stdinOut;
  svc::Service reference;
  svc::runServer(in, stdinOut, reference);
  EXPECT_EQ(socketOut, stdinOut.str());
}

TEST_F(NetServerTest, ZeroEmitQueueLimitStillAnswersEveryLine) {
  // `nanod --emit-queue 0` once paused every connection for good: the
  // read gate admits a line only while pendingResponses() < limit.
  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::Service service;
  NetServerOptions options;
  options.tcpPort = 0;
  options.session.emitQueueLimit = 0;
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  const int fd = mock.connectTcp(server.tcpPort());
  ASSERT_GE(fd, 0);
  mock.clientSend(fd, R"({"id":"a","kind":"wire"})" "\n"
                      R"({"id":"b","kind":"wire"})" "\n");
  mock.clientCloseWrite(fd);
  const std::vector<std::string> lines = splitLines(mock.clientReadAll(fd));
  server.stop();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind(R"({"id":"a",)", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind(R"({"id":"b",)", 0), 0u) << lines[1];
}

// ----------------------------------------- overload sheds, in order

TEST_F(NetServerTest, QueueOverloadShedsWithStructuredStatusInOrder) {
  enableMetrics();
  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::ServiceOptions serviceOptions;
  serviceOptions.scheduler.maxQueue = 2;
  svc::Service service(serviceOptions);
  NetServerOptions options;
  options.tcpPort = 0;
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  const int fd = mock.connectTcp(server.tcpPort());
  ASSERT_GE(fd, 0);
  // Occupy the batcher (~40ms), then flood a 2-deep queue.
  mock.clientSend(
      fd,
      R"({"id":"plug","kind":"design_grid","params":{"vdd_steps":60,"vth_steps":60}})"
      "\n");
  ASSERT_TRUE(waitFor([] { return counterValue("svc/cache_misses") >= 1; }));
  for (int i = 0; i < 10; ++i) {
    mock.clientSend(fd, R"({"id":"f)" + std::to_string(i) +
                            R"(","kind":"wire","params":{"width_multiple":)" +
                            std::to_string(2.0 + i) + "}}\n");
  }
  mock.clientCloseWrite(fd);
  const std::vector<std::string> lines = splitLines(mock.clientReadAll(fd));
  server.stop();

  ASSERT_EQ(lines.size(), 11u) << "every request gets a response, shed or not";
  // Responses stay in input order even when most of the flood sheds.
  EXPECT_NE(lines[0].find(R"("id":"plug")"), std::string::npos);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(lines[static_cast<std::size_t>(i + 1)].find(
                  R"("id":"f)" + std::to_string(i) + "\""),
              std::string::npos);
  }
  EXPECT_EQ(server.stats().sessions.shed, 8u) << "queue held 2 of the 10";
  const std::string shedLine = lines[4];
  EXPECT_NE(shedLine.find(R"("status":"shed")"), std::string::npos);
  EXPECT_NE(shedLine.find("queue"), std::string::npos);
}

// ------------------------------------------------- lifecycle odds/ends

TEST_F(NetServerTest, StopWithClientsMidStreamDrainsAndAnswersEverything) {
  enableMetrics();
  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::Service service;
  NetServerOptions options;
  options.tcpPort = 0;
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  const int fd = mock.connectTcp(server.tcpPort());
  ASSERT_GE(fd, 0);
  for (int i = 0; i < 5; ++i) {
    mock.clientSend(fd, R"({"id":"s)" + std::to_string(i) +
                            R"(","kind":"wire"})" "\n");
  }
  // No half-close from the client: once the server has consumed the
  // burst, stop() itself must EOF the stream, answer everything already
  // admitted, flush, and close.
  ASSERT_TRUE(waitFor([] { return counterValue("net/lines_in") == 5; }));
  server.stop();
  const std::vector<std::string> lines = splitLines(mock.clientReadAll(fd));
  EXPECT_EQ(server.stats().sessions.lines, 5u);
  ASSERT_EQ(lines.size(), 5u);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find(R"("status":"ok")"), std::string::npos) << line;
  }
  EXPECT_TRUE(mock.serverClosed(fd));
}

// ------------------------------------------------------- input edges

/// The stdin server's replies to `input`: the reference for socket framing.
std::string stdinReplies(const std::string& input) {
  svc::Service service;
  std::istringstream in(input);
  std::ostringstream out;
  svc::runServer(in, out, service);
  return out.str();
}

/// Send `input` on one TCP connection, half-close, and collect the replies.
std::string socketReplies(const std::string& input) {
  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::Service service;
  NetServerOptions options;
  options.tcpPort = 0;
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  EXPECT_TRUE(server.start(error)) << error;
  const int fd = mock.connectTcp(server.tcpPort());
  EXPECT_GE(fd, 0);
  mock.clientSend(fd, input);
  mock.clientCloseWrite(fd);
  std::string replies = mock.clientReadAll(fd);
  server.stop();
  return replies;
}

TEST_F(NetServerTest, UnterminatedLastLineIsAnsweredLikeStdin) {
  const std::string bare = R"({"id":"b","kind":"wire"})";
  const std::string expected = stdinReplies(bare);
  ASSERT_NE(expected.find(R"("status":"ok")"), std::string::npos);
  EXPECT_EQ(socketReplies(bare), expected);

  // After a complete line, and with the CR of a CRLF client.
  const std::string crlf = R"({"id":"a","kind":"wire"})" "\r\n"
                           R"({"id":"c","kind":"wire"})" "\r";
  EXPECT_EQ(socketReplies(crlf), stdinReplies(crlf));
}

TEST_F(NetServerTest, OversizeLineClosesThatConnectionOnly) {
  enableMetrics();
  auto mockPtr = std::make_unique<MockSocketOps>();
  MockSocketOps& mock = *mockPtr;
  svc::Service service;
  NetServerOptions options;
  options.tcpPort = 0;
  options.maxLineBytes = 64;
  NetServer server(service, options, std::move(mockPtr));
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;

  const int big = mock.connectTcp(server.tcpPort());
  ASSERT_GE(big, 0);
  mock.clientSend(big, std::string(200, 'x'));  // no newline, past the cap
  EXPECT_TRUE(waitFor([&] { return mock.serverClosed(big); }));

  const int next = mock.connectTcp(server.tcpPort());
  ASSERT_GE(next, 0);
  mock.clientSend(next, R"({"id":"r","kind":"wire"})" "\n");
  mock.clientCloseWrite(next);
  EXPECT_NE(mock.clientReadAll(next).find(R"("status":"ok")"),
            std::string::npos);
  server.stop();
  EXPECT_EQ(server.stats().oversizeCloses, 1u);
  EXPECT_EQ(counterValue("net/oversize_closes"), 1);
}

TEST_F(NetServerTest, GarbageLinesEachGetOneInvalidReplyInOrder) {
  std::vector<std::string> garbage = {
      std::string(1, '\0'),
      std::string("{\"id\":\"n\0\",\"kind\":\"wire\"}", 25),  // NUL in a string
      "\xc3\x28",  // invalid UTF-8
      "\xff{\"kind\":\"wire\"}",
      R"({"id":"\ud800","kind":"wire"})",  // lone surrogate
      "\r\r",  // a CR on its own (the last one is the CRLF strip)
      "a\rb",
      R"({"id":"u","kind":"wire")",  // unbalanced brackets
      "[[[",
      "]]",
      "{{}",
  };
  // Seeded random bytes: anything but the line terminators.
  util::Rng rng(16);
  for (int i = 0; i < 48; ++i) {
    std::string line;
    const int length = rng.uniformInt(1, 40);
    while (static_cast<int>(line.size()) < length) {
      const char c = static_cast<char>(rng.uniformInt(0, 255));
      if (c != '\n' && c != '\r') line.push_back(c);
    }
    garbage.push_back(line);
  }
  std::string input;
  for (const std::string& line : garbage) input += line + "\n";

  const std::string replies = socketReplies(input);
  EXPECT_EQ(replies, stdinReplies(input));
  const std::vector<std::string> lines = splitLines(replies);
  ASSERT_EQ(lines.size(), garbage.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find(R"("status":"invalid")"), std::string::npos)
        << "line " << i << ": " << lines[i];
  }
}

TEST_F(NetServerTest, StartWithoutListenersFails) {
  svc::Service service;
  NetServer server(service, NetServerOptions{},
                   std::make_unique<MockSocketOps>());
  std::string error;
  EXPECT_FALSE(server.start(error));
  EXPECT_NE(error.find("listener"), std::string::npos);
  server.stop();  // no-op, must not hang or crash
}

}  // namespace
}  // namespace nano::net
