// Multi-client socket front end for the evaluation service: one
// event-driven receive thread accepts TCP and/or Unix-domain connections,
// frames each into newline-delimited requests, and feeds every connection
// through its own svc::Session — the exact pipeline the stdin server
// runs, so a trace replayed over a socket is byte-identical to the same
// trace piped through stdin, at any NANO_EXEC_THREADS. No thread belongs
// to a connection: the receive thread answers cache hits itself, and an
// exec lane queues each evaluated response and wakes the loop to write it.
//
// Memory is bounded per connection at every stage:
//   - unframed input:   reads stop past maxLineBytes (oversize close)
//   - framed-not-admitted lines + in-flight responses: the receive loop
//     pauses POLLIN once the session's emit queue is full, so TCP flow
//     control pushes back on the client (net/read_pauses)
//   - serialized-but-unsent responses: a client that stops reading past
//     maxWriteBufferBytes is disconnected (net/slow_client_closes)
// and process-wide by the admission limit: past maxClients, a new
// connection gets one structured {"status":"shed",...} line — the same
// shape the scheduler's queue-full path emits — and is closed.
//
// All socket I/O goes through SocketOps, so the whole server runs against
// the in-memory mock (tests/support/mock_socket.h) in tests.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_ops.h"
#include "svc/server.h"

namespace nano::net {

struct NetServerOptions {
  /// TCP listener; port -1 disables, 0 binds an ephemeral port (read it
  /// back with NetServer::tcpPort() after start()).
  std::string tcpHost = "127.0.0.1";
  int tcpPort = -1;
  /// Unix-domain listener path; empty disables. A stale socket file at
  /// the path is replaced.
  std::string unixPath;

  /// Admission limit: connections past this get one structured shed line
  /// and are closed (net/shed_connections).
  std::size_t maxClients = 64;
  /// Close a connection with no traffic and nothing in flight for this
  /// long (0 disables). The close is graceful: anything already admitted
  /// still gets its response.
  int idleTimeoutMs = 0;
  /// Disconnect a client whose unread responses exceed this many bytes —
  /// the emit-queue pause bounds response *count*; this bounds the
  /// serialized bytes a non-reading client can pin.
  std::size_t maxWriteBufferBytes = 4u << 20;
  /// A single request line larger than this closes the connection
  /// (net/oversize_closes) — it could never parse anyway.
  std::size_t maxLineBytes = 1u << 20;

  /// Per-connection pipeline knobs (slow log, emitQueueLimit). The emit
  /// queue limit doubles as the per-connection write-queue bound that
  /// triggers read pauses.
  svc::ServerOptions session;
};

/// Receive-thread tallies; read them after stop().
struct NetServerStats {
  std::size_t accepted = 0;
  std::size_t shedConnections = 0;
  std::size_t idleCloses = 0;
  std::size_t slowClientCloses = 0;
  std::size_t oversizeCloses = 0;
  std::size_t closes = 0;          ///< connections fully closed (any reason)
  svc::ServerStats sessions;       ///< aggregate of every connection's tally
};

class NetServer {
 public:
  /// `ops` defaults to the real POSIX implementation; tests pass a
  /// MockSocketOps they also drive the client side of.
  NetServer(svc::Service& service, NetServerOptions options,
            std::unique_ptr<SocketOps> ops = nullptr);
  /// stop() if the caller has not.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Bind the configured listeners and start the receive thread. False
  /// (with `error` filled) if nothing could listen; no thread runs then.
  bool start(std::string& error);

  /// The TCP port actually bound (after start(); -1 if TCP is disabled).
  [[nodiscard]] int tcpPort() const { return boundTcpPort_; }

  /// Begin graceful shutdown without blocking: stop accepting, EOF every
  /// connection, drain in-flight work, flush, close. Async-signal-safe
  /// (an atomic store plus SocketOps::wake()), so signal handlers may
  /// call it directly.
  void requestStop();

  /// Block until the receive loop exits — i.e. until requestStop() is
  /// called (possibly from a signal handler) and the drain completes —
  /// then drain the service. Idempotent and thread-safe; stats() is
  /// stable once this returns.
  void wait();

  /// requestStop() + wait().
  void stop();

  /// Live connection count (any thread; tests poll this).
  [[nodiscard]] std::size_t activeConnections() const {
    return connCount_.load(std::memory_order_acquire);
  }

  /// Valid after stop().
  [[nodiscard]] const NetServerStats& stats() const { return stats_; }

 private:
  /// Receive-thread state for one client. Exec lanes, through the
  /// session's sink, only touch outQueue/outBytes (under outMutex);
  /// everything else is the receive thread's alone. The Session is
  /// destroyed before the Connection, so the sink's raw back-pointer never
  /// dangles.
  struct Connection {
    int fd = -1;
    std::unique_ptr<svc::Session> session;
    std::string readBuf;                   ///< unframed input bytes
    std::deque<std::string> pendingLines;  ///< framed, awaiting admission
    bool inputEof = false;      ///< no more reads (EOF, idle, or drain)
    bool inputClosed = false;   ///< session->closeInput() issued
    bool doomed = false;        ///< discard output, reap once drained
    bool readPaused = false;    ///< currently backpressured (for the tally)
    std::int64_t lastActivityNs = 0;

    std::mutex outMutex;
    std::deque<std::string> outQueue;  ///< sink pushes, receiver drains
    std::size_t outBytes = 0;          ///< queued + unwritten head bytes
    std::string writeHead;             ///< receive thread only
    std::size_t writeOff = 0;
  };

  void receiveLoop();
  void beginDrain();
  void acceptPending(int listenFd);
  void shedConnection(int fd);
  void readInto(Connection& c);
  void pumpLines(Connection& c);
  void flushWrites(Connection& c);
  void doomConnection(Connection& c);
  void reapFinished();
  void closeIdle();
  [[nodiscard]] bool wantsRead(Connection& c) const;
  [[nodiscard]] bool hasOutbound(Connection& c);
  void enqueueOutput(Connection& c, std::string&& line);
  void adjustOutstanding(std::ptrdiff_t delta);

  svc::Service& service_;
  NetServerOptions options_;
  std::unique_ptr<SocketOps> ops_;
  std::vector<int> listenFds_;
  int boundTcpPort_ = -1;
  std::map<int, std::unique_ptr<Connection>> conns_;  ///< receive thread only
  std::atomic<std::size_t> connCount_{0};
  std::atomic<std::ptrdiff_t> outstandingBytes_{0};  ///< across connections
  std::atomic<std::ptrdiff_t> peakOutstanding_{0};
  std::atomic<bool> stopRequested_{false};
  bool draining_ = false;   ///< receive thread only
  NetServerStats stats_;    ///< receive thread only, until stop()
  std::once_flag stopOnce_;
  bool started_ = false;
  std::thread receiver_;
};

}  // namespace nano::net
