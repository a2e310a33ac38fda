// The narrow syscall surface the socket front end stands on. Everything
// the receive loop does to a socket goes through this interface, so the
// multi-client test suite can swap the kernel out for an in-memory
// loopback double (tests/support/mock_socket.h) and run deterministically
// with no real networking, no ports, and no firewall prompts — the same
// pattern as sACN's sockets/sacn_mock split.
//
// All descriptors are non-blocking by construction: read/write report
// would-block instead of stalling, and poll() is the only place the
// receive thread sleeps. wake() interrupts a sleeping poll() from any
// thread (exec lanes handing over responses, signal handlers via the
// POSIX self-pipe).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace nano::net {

/// One descriptor in a poll() set: `want*` say what the caller waits
/// for, the out flags say what fired.
struct PollItem {
  int fd = -1;
  bool wantRead = false;
  bool wantWrite = false;
  bool readable = false;  ///< out: bytes (or a pending accept) available
  bool writable = false;  ///< out: a write would make progress
  bool broken = false;    ///< out: error/hangup; close the descriptor
};

/// Sentinels for read()/write() results alongside ">= 0 bytes moved".
inline constexpr long kIoWouldBlock = -1;
inline constexpr long kIoError = -2;

class SocketOps {
 public:
  virtual ~SocketOps() = default;

  /// Bind + listen a TCP socket on host:port (port 0 picks an ephemeral
  /// port — read it back with localPort()). Returns the listener fd, or
  /// -1 with `error` filled.
  virtual int listenTcp(const std::string& host, int port,
                        std::string& error) = 0;
  /// Bind + listen a Unix-domain socket at `path` (an existing socket
  /// file is replaced). Returns the listener fd, or -1 with `error`.
  virtual int listenUnix(const std::string& path, std::string& error) = 0;
  /// The port a TCP listener actually bound (-1 if not a TCP listener).
  virtual int localPort(int listenFd) = 0;

  /// Accept one pending connection; -1 when none are pending.
  virtual int accept(int listenFd) = 0;
  /// Bytes read (> 0), 0 at EOF, kIoWouldBlock, or kIoError.
  virtual long read(int fd, char* buf, std::size_t n) = 0;
  /// Bytes written (>= 0, possibly short), kIoWouldBlock, or kIoError.
  virtual long write(int fd, const char* buf, std::size_t n) = 0;
  virtual void close(int fd) = 0;

  /// Wait until an item is ready, wake() is called, or `timeoutMs`
  /// elapses (-1 = no timeout). Fills the out flags; returns the number
  /// of ready items (0 on timeout or wake).
  virtual int poll(std::vector<PollItem>& items, int timeoutMs) = 0;
  /// Interrupt a sleeping poll() from another thread. With the POSIX
  /// implementation this is a single write() to a self-pipe, so it is
  /// safe to call from a signal handler.
  virtual void wake() = 0;
};

/// The real thing: POSIX sockets, one self-pipe for wake(). Each server
/// owns its own instance (the self-pipe is per-instance state).
std::unique_ptr<SocketOps> makePosixSocketOps();

}  // namespace nano::net
