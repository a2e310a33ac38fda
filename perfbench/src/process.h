// A nanod child process on loopback TCP, and a blocking line-protocol
// client connection to it.
#pragma once

#include <sys/types.h>

#include <map>
#include <string>

namespace perfbench {

/// VmHWM (peak resident set) of process `pid` in KiB, or -1.
long peakRssKb(pid_t pid);

class NanodProcess {
 public:
  /// Spawns `nanod --listen 127.0.0.1:0 --metrics FILE --port-file FILE`
  /// with its files under `dir`. The child inherits the CPU affinity and
  /// environment (NANO_EXEC_THREADS) of this process.
  NanodProcess(const std::string& exe, const std::string& dir, int index);
  /// Kills the child if stop() was not called.
  ~NanodProcess();
  NanodProcess(const NanodProcess&) = delete;
  NanodProcess& operator=(const NanodProcess&) = delete;

  /// Wait until the port file is written (the listener is live).
  bool waitListening(int timeoutMs);
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// SIGTERM, wait for the drain and exit, then read the exposition nanod
  /// wrote at exit. False if it did not exit cleanly in time.
  bool stop(std::map<std::string, double>& exposition, int timeoutMs);

 private:
  pid_t pid_ = -1;
  int port_ = -1;
  std::string portFile_;
  std::string metricsFile_;
};

class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool open(int port);
  /// Close the socket (the destructor does too).
  void close();
  /// Send `line` plus a newline and read one response line. False on a
  /// socket error or after 20 s without a reply.
  bool roundTrip(const std::string& line, std::string& response);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
