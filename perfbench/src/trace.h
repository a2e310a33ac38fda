// In-memory span recorder for the traced replays. A span is recorded by
// the benchmark around a call into one of the program's public functions:
// name, start, end, parent span and the operation it belongs to. Nothing
// is written while a replay runs; writeCsv() dumps every span at exit.
//
// A null Tracer* disables recording, so the untraced replay runs the same
// code with one branch per span site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  std::int64_t startNs;
  std::int64_t endNs;
  std::int32_t parent;  ///< index into the same replay's spans, -1 = root
  std::uint32_t op;     ///< operation id shared by one request's spans
};

class Tracer {
 public:
  explicit Tracer(std::string replay) : replay_(std::move(replay)) {}

  std::int32_t begin(const char* name, std::int32_t parent, std::uint32_t op) {
    spans_.push_back({name, nowNs(), 0, parent, op});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void end(std::int32_t index) { spans_[static_cast<std::size_t>(index)].endNs = nowNs(); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::string& replay() const { return replay_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::string replay_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int32_t parent,
             std::uint32_t op)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->begin(name, parent, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Per-name totals of one replay: calls and self time (duration minus the
/// part its child spans cover).
struct SpanTotals {
  std::int64_t calls = 0;
  std::int64_t selfNs = 0;
};
std::map<std::string, SpanTotals> selfTimes(const Tracer& tracer);

/// Append every span of `tracer` as CSV rows
/// (replay,name,op,parent,start_ns,end_ns).
void writeCsv(const Tracer& tracer, std::string& out);

}  // namespace perfbench
