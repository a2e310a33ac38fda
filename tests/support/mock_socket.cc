#include "support/mock_socket.h"

#include <algorithm>
#include <chrono>

namespace nano::net {

// ---------------------------------------------------------- server side

int MockSocketOps::listenTcp(const std::string& host, int port,
                             std::string& error) {
  (void)host;  // the mock has one address family: "here"
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [fd, l] : listeners_) {
    if (l.tcp && l.port == port && port != 0) {
      error = "mock port already in use";
      return -1;
    }
  }
  Listener listener;
  listener.tcp = true;
  listener.port = port == 0 ? nextPort_++ : port;
  const int fd = nextFd_++;
  listeners_.emplace(fd, std::move(listener));
  return fd;
}

int MockSocketOps::listenUnix(const std::string& path, std::string& error) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [fd, l] : listeners_) {
    if (!l.tcp && l.path == path) {
      error = "mock unix path already in use: " + path;
      return -1;
    }
  }
  Listener listener;
  listener.path = path;
  const int fd = nextFd_++;
  listeners_.emplace(fd, std::move(listener));
  return fd;
}

int MockSocketOps::localPort(int listenFd) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = listeners_.find(listenFd);
  return it != listeners_.end() && it->second.tcp ? it->second.port : -1;
}

int MockSocketOps::accept(int listenFd) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = listeners_.find(listenFd);
  if (it == listeners_.end() || it->second.pendingServerFds.empty()) return -1;
  const int fd = it->second.pendingServerFds.front();
  it->second.pendingServerFds.pop_front();
  return fd;
}

long MockSocketOps::read(int fd, char* buf, std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  const ConnPtr conn = serverConnLocked(fd);
  if (!conn) return kIoError;
  if (conn->toServer.buf.empty()) {
    if (conn->toServer.writerClosed || conn->clientClosed) return 0;  // EOF
    return kIoWouldBlock;
  }
  const std::size_t take = std::min(n, conn->toServer.buf.size());
  std::copy_n(conn->toServer.buf.data(), take, buf);
  conn->toServer.buf.erase(0, take);
  return static_cast<long>(take);
}

long MockSocketOps::write(int fd, const char* buf, std::size_t n) {
  std::unique_lock<std::mutex> lock(mutex_);
  const ConnPtr conn = serverConnLocked(fd);
  if (!conn) return kIoError;
  if (conn->clientClosed) return kIoError;  // like EPIPE
  std::size_t space = n;
  if (conn->toClientCap != 0) {
    space = conn->toClientCap > conn->toClient.buf.size()
                ? conn->toClientCap - conn->toClient.buf.size()
                : 0;
    if (space == 0) return kIoWouldBlock;
  }
  const std::size_t put = std::min(n, space);
  conn->toClient.buf.append(buf, put);
  lock.unlock();
  cv_.notify_all();
  return static_cast<long>(put);
}

void MockSocketOps::close(int fd) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (listeners_.erase(fd) > 0) return;
    const auto it = byFd_.find(fd);
    if (it == byFd_.end()) return;
    const ConnPtr conn = it->second;
    if (fd == conn->serverFd) {
      conn->serverClosed = true;
      conn->toClient.writerClosed = true;
    } else {
      conn->clientClosed = true;
      conn->toServer.writerClosed = true;
    }
    byFd_.erase(it);
  }
  cv_.notify_all();
}

int MockSocketOps::poll(std::vector<PollItem>& items, int timeoutMs) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto fill = [&]() -> int {
    int ready = 0;
    for (PollItem& item : items) {
      item.readable = item.writable = item.broken = false;
      const auto lit = listeners_.find(item.fd);
      if (lit != listeners_.end()) {
        item.readable = item.wantRead && !lit->second.pendingServerFds.empty();
      } else {
        const ConnPtr conn = serverConnLocked(item.fd);
        if (!conn) {
          item.broken = true;
        } else {
          item.readable = item.wantRead && serverReadableLocked(*conn);
          item.writable = item.wantWrite && serverWritableLocked(*conn);
        }
      }
      if (item.readable || item.writable || item.broken) ++ready;
    }
    return ready;
  };

  const auto woken = [&] { return wakePending_ || fill() > 0; };
  if (timeoutMs < 0) {
    cv_.wait(lock, woken);
  } else {
    cv_.wait_for(lock, std::chrono::milliseconds(timeoutMs), woken);
  }
  wakePending_ = false;
  return fill();
}

void MockSocketOps::wake() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    wakePending_ = true;
  }
  cv_.notify_all();
}

// ---------------------------------------------------------- client side

int MockSocketOps::connectLocked(Listener& listener) {
  auto conn = std::make_shared<Conn>();
  conn->serverFd = nextFd_++;
  conn->clientFd = nextFd_++;
  conn->toClientCap = clientRecvCapacity_;
  byFd_.emplace(conn->serverFd, conn);
  byFd_.emplace(conn->clientFd, conn);
  listener.pendingServerFds.push_back(conn->serverFd);
  return conn->clientFd;
}

int MockSocketOps::connectTcp(int port) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [lfd, listener] : listeners_) {
      if (listener.tcp && listener.port == port) {
        fd = connectLocked(listener);
        break;
      }
    }
  }
  if (fd >= 0) cv_.notify_all();
  return fd;
}

int MockSocketOps::connectUnix(const std::string& path) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [lfd, listener] : listeners_) {
      if (!listener.tcp && listener.path == path) {
        fd = connectLocked(listener);
        break;
      }
    }
  }
  if (fd >= 0) cv_.notify_all();
  return fd;
}

void MockSocketOps::clientSend(int clientFd, std::string_view bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const ConnPtr conn = clientConnLocked(clientFd);
    if (!conn || conn->toServer.writerClosed) return;
    conn->toServer.buf.append(bytes.data(), bytes.size());
  }
  cv_.notify_all();
}

void MockSocketOps::clientCloseWrite(int clientFd) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const ConnPtr conn = clientConnLocked(clientFd);
    if (!conn) return;
    conn->toServer.writerClosed = true;
  }
  cv_.notify_all();
}

void MockSocketOps::clientClose(int clientFd) { close(clientFd); }

bool MockSocketOps::clientRead(int clientFd, std::string& out, int timeoutMs) {
  std::unique_lock<std::mutex> lock(mutex_);
  const ConnPtr conn = clientConnLocked(clientFd);
  if (!conn) return false;
  const auto haveData = [&] {
    return !conn->toClient.buf.empty() || conn->toClient.writerClosed;
  };
  if (!cv_.wait_for(lock, std::chrono::milliseconds(timeoutMs), haveData)) {
    return false;
  }
  if (conn->toClient.buf.empty()) return false;  // EOF
  out.append(conn->toClient.buf);
  conn->toClient.buf.clear();
  cv_.notify_all();
  return true;
}

std::string MockSocketOps::clientReadAll(int clientFd, int timeoutMs) {
  std::string all;
  std::unique_lock<std::mutex> lock(mutex_);
  const ConnPtr conn = clientConnLocked(clientFd);
  if (!conn) return all;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeoutMs);
  while (true) {
    all.append(conn->toClient.buf);
    conn->toClient.buf.clear();
    if (conn->toClient.writerClosed) break;
    if (cv_.wait_until(lock, deadline, [&] {
          return !conn->toClient.buf.empty() || conn->toClient.writerClosed;
        })) {
      continue;
    }
    break;  // timed out waiting for more
  }
  all.append(conn->toClient.buf);
  conn->toClient.buf.clear();
  cv_.notify_all();
  return all;
}

bool MockSocketOps::serverClosed(int clientFd) {
  std::lock_guard<std::mutex> lock(mutex_);
  const ConnPtr conn = clientConnLocked(clientFd);
  return conn == nullptr || conn->serverClosed;
}

void MockSocketOps::setClientRecvCapacity(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  clientRecvCapacity_ = bytes;
}

// --------------------------------------------------------------- lookup

MockSocketOps::ConnPtr MockSocketOps::serverConnLocked(int fd) const {
  const auto it = byFd_.find(fd);
  return it != byFd_.end() && it->second->serverFd == fd ? it->second
                                                         : nullptr;
}

MockSocketOps::ConnPtr MockSocketOps::clientConnLocked(int fd) const {
  const auto it = byFd_.find(fd);
  return it != byFd_.end() && it->second->clientFd == fd ? it->second
                                                         : nullptr;
}

bool MockSocketOps::serverReadableLocked(const Conn& c) const {
  return !c.toServer.buf.empty() || c.toServer.writerClosed || c.clientClosed;
}

bool MockSocketOps::serverWritableLocked(const Conn& c) const {
  if (c.clientClosed) return true;  // a write would fail fast, like POLLOUT+EPIPE
  if (c.toClientCap == 0) return true;
  return c.toClient.buf.size() < c.toClientCap;
}

}  // namespace nano::net
