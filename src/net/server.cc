#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/obs.h"
#include "svc/request.h"

namespace nano::net {

namespace {

std::int64_t monotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Set on a receive thread: its own loop flushes whatever it enqueues, so
/// it needs no wake-up.
thread_local bool tOnReceiveThread = false;

/// Queue one framed line the way the stdin server's std::getline loop
/// does: CRLF input loses its CR, and empty lines are skipped.
void pushLine(std::deque<std::string>& lines, std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (!line.empty()) lines.push_back(std::move(line));
}

}  // namespace

NetServer::NetServer(svc::Service& service, NetServerOptions options,
                     std::unique_ptr<SocketOps> ops)
    : service_(service),
      options_(std::move(options)),
      ops_(ops ? std::move(ops) : makePosixSocketOps()) {
  // The read gate admits a line while fewer than this many responses are
  // pending: a limit of 0 would never admit one.
  if (options_.session.emitQueueLimit == 0) options_.session.emitQueueLimit = 1;
}

NetServer::~NetServer() { stop(); }

bool NetServer::start(std::string& error) {
  if (options_.tcpPort < 0 && options_.unixPath.empty()) {
    error = "no listener configured (need a TCP port or a unix path)";
    return false;
  }
  if (options_.tcpPort >= 0) {
    const int fd = ops_->listenTcp(options_.tcpHost, options_.tcpPort, error);
    if (fd < 0) return false;
    listenFds_.push_back(fd);
    boundTcpPort_ = ops_->localPort(fd);
  }
  if (!options_.unixPath.empty()) {
    const int fd = ops_->listenUnix(options_.unixPath, error);
    if (fd < 0) {
      for (const int lfd : listenFds_) ops_->close(lfd);
      listenFds_.clear();
      return false;
    }
    listenFds_.push_back(fd);
  }
  started_ = true;
  receiver_ = std::thread([this] { receiveLoop(); });
  return true;
}

void NetServer::requestStop() {
  stopRequested_.store(true, std::memory_order_release);
  ops_->wake();
}

void NetServer::wait() {
  if (!started_) return;
  std::call_once(stopOnce_, [this] {
    receiver_.join();
    // Everything the sessions admitted is already emitted (the loop only
    // exits once every session finished), but direct submitters may still
    // be in flight; leave the service itself fully quiesced too.
    service_.drain();
  });
}

void NetServer::stop() {
  if (!started_) return;
  requestStop();
  wait();
}

// ------------------------------------------------------------- the loop

void NetServer::receiveLoop() {
  tOnReceiveThread = true;
  std::vector<PollItem> items;
  while (true) {
    if (stopRequested_.load(std::memory_order_acquire) && !draining_) {
      beginDrain();
    }
    for (auto& [fd, conn] : conns_) pumpLines(*conn);
    for (auto& [fd, conn] : conns_) flushWrites(*conn);
    closeIdle();
    reapFinished();
    if (draining_ && conns_.empty()) break;

    items.clear();
    for (const int lfd : listenFds_) {
      PollItem item;
      item.fd = lfd;
      item.wantRead = true;
      items.push_back(item);
    }
    const std::size_t firstConn = items.size();
    for (auto& [fd, conn] : conns_) {
      PollItem item;
      item.fd = fd;
      item.wantRead = wantsRead(*conn);
      item.wantWrite = !conn->doomed && hasOutbound(*conn);
      items.push_back(item);
    }

    int timeoutMs = draining_ ? 100 : 1000;
    if (options_.idleTimeoutMs > 0) {
      timeoutMs = std::min(timeoutMs, options_.idleTimeoutMs / 4 + 1);
    }
    ops_->poll(items, timeoutMs);

    for (std::size_t i = 0; i < firstConn; ++i) {
      if (items[i].readable) acceptPending(items[i].fd);
    }
    for (std::size_t i = firstConn; i < items.size(); ++i) {
      const auto it = conns_.find(items[i].fd);
      if (it == conns_.end()) continue;
      Connection& conn = *it->second;
      if (items[i].broken) {
        doomConnection(conn);
      } else if (items[i].readable) {
        readInto(conn);
      }
      // Writable progress is made by the flushWrites() sweep at the top
      // of the loop, which also runs for wake()-driven exec-lane pushes.
    }
  }
}

void NetServer::beginDrain() {
  draining_ = true;
  for (const int lfd : listenFds_) ops_->close(lfd);
  listenFds_.clear();
  // Treat every connection as if the client half-closed: buffered lines
  // still run, admitted work still answers, then the socket closes.
  for (auto& [fd, conn] : conns_) conn->inputEof = true;
}

// -------------------------------------------------------------- intake

void NetServer::acceptPending(int listenFd) {
  while (true) {
    const int fd = ops_->accept(listenFd);
    if (fd < 0) break;
    if (draining_ || conns_.size() >= options_.maxClients) {
      shedConnection(fd);
      continue;
    }
    ++stats_.accepted;
    NANO_OBS_COUNT("net/accepted", 1);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->lastActivityNs = monotonicNowNs();
    Connection* raw = conn.get();
    conn->session = std::make_unique<svc::Session>(
        service_, options_.session,
        [this, raw](std::string&& line) {
          enqueueOutput(*raw, std::move(line));
        },
        service_.newSessionId());
    // Whenever a session empties, the loop must re-check reap/backpressure.
    conn->session->setDrainedCallback([this] { ops_->wake(); });
    conns_.emplace(fd, std::move(conn));
    connCount_.store(conns_.size(), std::memory_order_release);
    NANO_OBS_GAUGE("net/active_connections",
                   static_cast<double>(conns_.size()));
  }
}

void NetServer::shedConnection(int fd) {
  ++stats_.shedConnections;
  NANO_OBS_COUNT("net/shed_connections", 1);
  // Same structured shape as the scheduler's queue-full shed, so clients
  // handle admission-limit and overload rejections with one code path.
  svc::Response response;
  response.status = svc::ResponseStatus::Shed;
  response.error = draining_
                       ? "server draining"
                       : "max clients (" + std::to_string(options_.maxClients) +
                             " connections)";
  std::string line = response.toJsonLine();
  line.push_back('\n');
  // Best effort: the connection is being dropped either way, and a fresh
  // socket's send buffer always fits one line.
  ops_->write(fd, line.data(), line.size());
  ops_->close(fd);
}

void NetServer::readInto(Connection& c) {
  if (c.doomed || c.inputEof) return;
  char buf[4096];
  while (true) {
    const long got = ops_->read(c.fd, buf, sizeof(buf));
    if (got == kIoWouldBlock) break;
    if (got == kIoError) {
      doomConnection(c);
      return;
    }
    if (got == 0) {
      // The client's last line may lack its newline; std::getline answers
      // such a line in stdin mode, so frame it here too.
      pushLine(c.pendingLines, std::move(c.readBuf));
      c.readBuf.clear();
      c.inputEof = true;
      break;
    }
    NANO_OBS_COUNT("net/bytes_in", got);
    c.lastActivityNs = monotonicNowNs();
    c.readBuf.append(buf, static_cast<std::size_t>(got));
    std::size_t pos;
    while ((pos = c.readBuf.find('\n')) != std::string::npos) {
      pushLine(c.pendingLines, c.readBuf.substr(0, pos));
      c.readBuf.erase(0, pos + 1);
    }
    if (c.readBuf.size() > options_.maxLineBytes) {
      ++stats_.oversizeCloses;
      NANO_OBS_COUNT("net/oversize_closes", 1);
      doomConnection(c);
      return;
    }
    // Stop mid-burst once a full queue's worth of lines is already
    // framed; wantsRead() keeps the pause until the session drains.
    if (c.pendingLines.size() >= options_.session.emitQueueLimit) break;
  }
}

void NetServer::pumpLines(Connection& c) {
  if (c.doomed) return;
  // Only this thread pushes into the session, so a gap between the gate
  // and consumeLine can only see pendingResponses() shrink — the call
  // below never blocks the receive thread.
  while (!c.pendingLines.empty() &&
         c.session->pendingResponses() < options_.session.emitQueueLimit) {
    const std::string line = std::move(c.pendingLines.front());
    c.pendingLines.pop_front();
    NANO_OBS_COUNT("net/lines_in", 1);
    c.session->consumeLine(line);
    c.lastActivityNs = monotonicNowNs();
  }
  if (c.inputEof && c.pendingLines.empty() && !c.inputClosed) {
    c.session->closeInput();
    c.inputClosed = true;
  }
}

bool NetServer::wantsRead(Connection& c) const {
  if (c.doomed || c.inputEof) return false;
  const bool paused =
      c.pendingLines.size() >= options_.session.emitQueueLimit ||
      c.session->pendingResponses() >= options_.session.emitQueueLimit;
  if (paused && !c.readPaused) NANO_OBS_COUNT("net/read_pauses", 1);
  c.readPaused = paused;
  return !paused;
}

// -------------------------------------------------------------- output

void NetServer::enqueueOutput(Connection& c, std::string&& line) {
  const std::size_t bytes = line.size();
  {
    std::lock_guard<std::mutex> lock(c.outMutex);
    c.outBytes += bytes;
    c.outQueue.push_back(std::move(line));
  }
  adjustOutstanding(static_cast<std::ptrdiff_t>(bytes));
  // Cache hits are answered inside pumpLines(), and the flushWrites()
  // sweep right after it writes them; only exec lanes need to wake the
  // loop.
  if (!tOnReceiveThread) ops_->wake();
}

void NetServer::adjustOutstanding(std::ptrdiff_t delta) {
  const std::ptrdiff_t now =
      outstandingBytes_.fetch_add(delta, std::memory_order_acq_rel) + delta;
  NANO_OBS_GAUGE("net/write_queue_bytes", static_cast<double>(now));
  std::ptrdiff_t peak = peakOutstanding_.load(std::memory_order_relaxed);
  while (now > peak && !peakOutstanding_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  if (now > peak) {
    NANO_OBS_GAUGE("net/write_queue_peak", static_cast<double>(now));
  }
}

bool NetServer::hasOutbound(Connection& c) {
  if (!c.writeHead.empty()) return true;
  std::lock_guard<std::mutex> lock(c.outMutex);
  return !c.outQueue.empty();
}

void NetServer::flushWrites(Connection& c) {
  if (c.doomed) return;
  while (true) {
    if (c.writeOff == c.writeHead.size()) {
      c.writeHead.clear();
      c.writeOff = 0;
      std::lock_guard<std::mutex> lock(c.outMutex);
      if (c.outQueue.empty()) break;
      c.writeHead = std::move(c.outQueue.front());
      c.outQueue.pop_front();
    }
    const long put = ops_->write(c.fd, c.writeHead.data() + c.writeOff,
                                 c.writeHead.size() - c.writeOff);
    if (put == kIoWouldBlock) break;
    if (put == kIoError) {
      doomConnection(c);
      return;
    }
    c.writeOff += static_cast<std::size_t>(put);
    NANO_OBS_COUNT("net/bytes_out", put);
    {
      std::lock_guard<std::mutex> lock(c.outMutex);
      c.outBytes -= static_cast<std::size_t>(put);
    }
    adjustOutstanding(-put);
    c.lastActivityNs = monotonicNowNs();
  }
  std::size_t unread;
  {
    std::lock_guard<std::mutex> lock(c.outMutex);
    unread = c.outBytes;
  }
  if (unread > options_.maxWriteBufferBytes) {
    ++stats_.slowClientCloses;
    NANO_OBS_COUNT("net/slow_client_closes", 1);
    doomConnection(c);
  }
}

// ------------------------------------------------------------ lifecycle

void NetServer::doomConnection(Connection& c) {
  if (c.doomed) return;
  c.doomed = true;
  c.readBuf.clear();
  c.pendingLines.clear();
  if (!c.inputClosed) {
    c.session->closeInput();
    c.inputClosed = true;
  }
  // Output already queued (and whatever exec lanes still push while the
  // session drains) is discarded at reap; it is bounded by the emit-queue
  // limit.
}

void NetServer::closeIdle() {
  if (options_.idleTimeoutMs <= 0 || draining_) return;
  const std::int64_t cutoffNs =
      monotonicNowNs() -
      static_cast<std::int64_t>(options_.idleTimeoutMs) * 1'000'000;
  for (auto& [fd, conn] : conns_) {
    Connection& c = *conn;
    if (c.doomed || c.inputEof) continue;
    const bool quiet = c.pendingLines.empty() && c.readBuf.empty() &&
                       c.session->pendingResponses() == 0 && !hasOutbound(c);
    if (quiet && c.lastActivityNs < cutoffNs) {
      ++stats_.idleCloses;
      NANO_OBS_COUNT("net/idle_closes", 1);
      // Graceful: same path as a client half-close with nothing buffered.
      c.inputEof = true;
    }
  }
}

void NetServer::reapFinished() {
  std::vector<int> done;
  for (auto& [fd, conn] : conns_) {
    Connection& c = *conn;
    if (!c.inputClosed || !c.session->finished()) continue;
    if (!c.doomed && hasOutbound(c)) continue;  // still flushing
    done.push_back(fd);
  }
  for (const int fd : done) {
    const auto it = conns_.find(fd);
    Connection& c = *it->second;
    stats_.sessions += c.session->finish();
    c.session.reset();
    std::size_t discarded;
    {
      std::lock_guard<std::mutex> lock(c.outMutex);
      discarded = c.outBytes;
      c.outBytes = 0;
      c.outQueue.clear();
    }
    if (discarded > 0) {
      adjustOutstanding(-static_cast<std::ptrdiff_t>(discarded));
    }
    ops_->close(fd);
    ++stats_.closes;
    NANO_OBS_COUNT("net/closes", 1);
    conns_.erase(it);
  }
  if (!done.empty()) {
    connCount_.store(conns_.size(), std::memory_order_release);
    NANO_OBS_GAUGE("net/active_connections",
                   static_cast<double>(conns_.size()));
  }
}

}  // namespace nano::net
