// The loopback test double must behave like a non-blocking kernel socket
// layer: FIFO accepts, would-block on empty reads and capped writes, EOF
// after half-close, and a poll() that wakes on traffic and on wake().
// Every NetServer test stands on these semantics.
#include "support/mock_socket.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace nano::net {
namespace {

TEST(MockSocket, ListenConnectAcceptRoundTrip) {
  MockSocketOps mock;
  std::string error;
  const int listenFd = mock.listenTcp("127.0.0.1", 0, error);
  ASSERT_GE(listenFd, 0) << error;
  const int port = mock.localPort(listenFd);
  EXPECT_GT(port, 0);

  EXPECT_EQ(mock.accept(listenFd), -1);  // nothing pending
  const int clientFd = mock.connectTcp(port);
  ASSERT_GE(clientFd, 0);
  const int serverFd = mock.accept(listenFd);
  ASSERT_GE(serverFd, 0);
  EXPECT_EQ(mock.accept(listenFd), -1);

  // Client -> server.
  mock.clientSend(clientFd, "hello\n");
  char buf[64];
  EXPECT_EQ(mock.read(serverFd, buf, sizeof(buf)), 6);
  EXPECT_EQ(std::string(buf, 6), "hello\n");
  EXPECT_EQ(mock.read(serverFd, buf, sizeof(buf)), kIoWouldBlock);

  // Server -> client.
  EXPECT_EQ(mock.write(serverFd, "ok\n", 3), 3);
  std::string got;
  EXPECT_TRUE(mock.clientRead(clientFd, got, 1000));
  EXPECT_EQ(got, "ok\n");

  // Half-close: EOF after the buffered bytes drain.
  mock.clientSend(clientFd, "bye");
  mock.clientCloseWrite(clientFd);
  EXPECT_EQ(mock.read(serverFd, buf, sizeof(buf)), 3);
  EXPECT_EQ(mock.read(serverFd, buf, sizeof(buf)), 0);

  mock.close(serverFd);
  EXPECT_TRUE(mock.serverClosed(clientFd));
}

TEST(MockSocket, ConnectToNowhereFails) {
  MockSocketOps mock;
  EXPECT_EQ(mock.connectTcp(12345), -1);
  EXPECT_EQ(mock.connectUnix("/no/such.sock"), -1);
  std::string error;
  const int listenFd = mock.listenUnix("/tmp/mock.sock", error);
  ASSERT_GE(listenFd, 0) << error;
  EXPECT_GE(mock.connectUnix("/tmp/mock.sock"), 0);
  EXPECT_EQ(mock.localPort(listenFd), -1);  // not a TCP listener
}

TEST(MockSocket, CappedClientBufferGivesShortWritesThenWouldBlock) {
  MockSocketOps mock;
  std::string error;
  const int listenFd = mock.listenTcp("127.0.0.1", 0, error);
  ASSERT_GE(listenFd, 0) << error;
  mock.setClientRecvCapacity(4);
  const int clientFd = mock.connectTcp(mock.localPort(listenFd));
  const int serverFd = mock.accept(listenFd);
  ASSERT_GE(serverFd, 0);

  EXPECT_EQ(mock.write(serverFd, "abcdef", 6), 4);  // short
  EXPECT_EQ(mock.write(serverFd, "ef", 2), kIoWouldBlock);
  std::string got;
  ASSERT_TRUE(mock.clientRead(clientFd, got, 1000));
  EXPECT_EQ(got, "abcd");
  EXPECT_EQ(mock.write(serverFd, "ef", 2), 2);  // space again
}

TEST(MockSocket, WriteToClosedClientIsAnError) {
  MockSocketOps mock;
  std::string error;
  const int listenFd = mock.listenTcp("127.0.0.1", 0, error);
  const int clientFd = mock.connectTcp(mock.localPort(listenFd));
  const int serverFd = mock.accept(listenFd);
  mock.clientClose(clientFd);
  char buf[8];
  EXPECT_EQ(mock.read(serverFd, buf, sizeof(buf)), 0);  // EOF
  EXPECT_EQ(mock.write(serverFd, "x", 1), kIoError);
}

TEST(MockSocket, PollSeesPendingAcceptsBytesAndWake) {
  MockSocketOps mock;
  std::string error;
  const int listenFd = mock.listenTcp("127.0.0.1", 0, error);
  std::vector<PollItem> items(1);
  items[0].fd = listenFd;
  items[0].wantRead = true;
  EXPECT_EQ(mock.poll(items, 0), 0);  // nothing pending, immediate timeout

  const int clientFd = mock.connectTcp(mock.localPort(listenFd));
  EXPECT_EQ(mock.poll(items, 0), 1);
  EXPECT_TRUE(items[0].readable);

  const int serverFd = mock.accept(listenFd);
  items.resize(2);
  items[1].fd = serverFd;
  items[1].wantRead = true;
  EXPECT_EQ(mock.poll(items, 0), 0);  // accepted, no bytes yet

  // A blocked poll() must wake when bytes arrive from another thread.
  std::thread sender([&] { mock.clientSend(clientFd, "x\n"); });
  EXPECT_EQ(mock.poll(items, 5000), 1);
  EXPECT_TRUE(items[1].readable);
  sender.join();

  // And when wake() is called with no traffic at all.
  char buf[8];
  ASSERT_EQ(mock.read(serverFd, buf, sizeof(buf)), 2);
  std::thread waker([&] { mock.wake(); });
  EXPECT_EQ(mock.poll(items, 5000), 0);
  waker.join();

  // An unknown fd reports broken.
  items[1].fd = 999999;
  EXPECT_EQ(mock.poll(items, 0), 1);
  EXPECT_TRUE(items[1].broken);
}

}  // namespace
}  // namespace nano::net
