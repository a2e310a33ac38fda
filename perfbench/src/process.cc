#include "process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

extern char** environ;

namespace perfbench {
namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool waitExit(pid_t pid, int timeoutMs) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  while (true) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (r < 0 && errno != EINTR) return false;
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// Prometheus text exposition -> {metric name: value}, label-free series.
std::map<std::string, double> parseExposition(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos || line.find('{') < space) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

}  // namespace

long peakRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  return -1;
}

NanodProcess::NanodProcess(const std::string& exe, const std::string& dir,
                           int index) {
  const std::string stem = dir + "/nanod" + std::to_string(index);
  portFile_ = stem + ".port";
  metricsFile_ = stem + ".prom";
  const std::string logFile = stem + ".log";
  ::unlink(portFile_.c_str());
  ::unlink(metricsFile_.c_str());

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, logFile.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<std::string> args = {exe,          "--listen",  "127.0.0.1:0",
                                   "--metrics",  metricsFile_, "--port-file",
                                   portFile_};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  if (posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv.data(),
                  environ) != 0) {
    pid_ = -1;
  }
  posix_spawn_file_actions_destroy(&actions);
}

NanodProcess::~NanodProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

bool NanodProcess::waitListening(int timeoutMs) {
  if (pid_ <= 0) return false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeoutMs);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string text = readFile(portFile_);
    if (!text.empty() && text.back() == '\n') {
      port_ = std::atoi(text.c_str());
      return port_ > 0;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return false;
}

bool NanodProcess::stop(std::map<std::string, double>& exposition,
                        int timeoutMs) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const bool clean = waitExit(pid_, timeoutMs);
  if (!clean) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  exposition = parseExposition(readFile(metricsFile_));
  return clean && !exposition.empty();
}

Connection::~Connection() { close(); }

void Connection::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool Connection::open(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{};
  tv.tv_sec = 20;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
}

bool Connection::roundTrip(const std::string& line, std::string& response) {
  std::string out = line;
  out.push_back('\n');
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  std::size_t scanned = 0;
  while (true) {
    const std::size_t nl = buffer_.find('\n', scanned);
    if (nl != std::string::npos) {
      response.assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      return true;
    }
    scanned = buffer_.size();
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace perfbench
