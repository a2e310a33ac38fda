// Request-scoped tracing substrate: an explicit TraceContext propagated
// through the svc pipeline plus per-thread bounded trace-event buffers
// that drain into a Chrome trace-event / Perfetto-compatible JSON file.
//
// Writers append events to a thread-local buffer with a single release
// store per event and never block; readers (journalSnapshot) observe a
// consistent prefix of every buffer with acquire loads, so a live export
// races with nothing. Buffers are bounded: when full, new events are
// dropped (and counted) rather than wrapping, which keeps concurrent
// export race-free. Event name/category strings must be string literals
// (or otherwise immortal) — the journal stores the pointers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace nano::obs {

/// Identity of one request as it flows across threads. Passed explicitly
/// (function parameter / captured struct member), not via ambient state;
/// TraceContextScope exists only to bridge into exec worker threads.
struct TraceContext {
  std::uint64_t id = 0;  ///< 0 = no trace (events still record, id-less)

  [[nodiscard]] bool valid() const { return id != 0; }
};

/// Global tracing switch, independent of obs::enabled(). Off by default;
/// nanod --trace flips it on. One relaxed load per instrumentation site.
bool tracingEnabled();
void setTracingEnabled(bool on);

/// Nanoseconds on the steady clock since the process trace epoch, offset
/// by +1 ms so a legitimate timestamp is never 0 (0 means "not captured").
std::int64_t traceNowNs();

/// traceNowNs() when obs or tracing is enabled, 0 otherwise. Hot paths
/// use this so the disabled configuration pays no clock read.
std::int64_t timingNowNs();

/// One journal record, mapping 1:1 onto a Chrome trace-event.
/// Phases: 'B'/'E' synchronous begin/end (strictly LIFO per thread),
/// 'b'/'e' async begin/end (paired across threads by cat+id+name),
/// 'X' complete event with explicit duration, 'i' instant.
struct TraceEvent {
  const char* name = nullptr;  ///< string literal
  const char* cat = nullptr;   ///< string literal
  std::uint64_t id = 0;        ///< trace id (0 = none)
  std::int64_t tsNs = 0;       ///< traceNowNs timestamp
  std::int64_t durNs = 0;      ///< 'X' only
  std::uint32_t tid = 0;       ///< journal-assigned compact thread id
  char phase = 'i';
};

/// Append one event stamped "now" on the calling thread. No-ops (beyond
/// one relaxed load) while tracing is disabled.
void traceBegin(const char* cat, const char* name, const TraceContext& ctx);
void traceEnd(const char* cat, const char* name, const TraceContext& ctx);
void traceInstant(const char* cat, const char* name, const TraceContext& ctx);

/// Append a complete ('X') event with explicit timestamps — used when the
/// caller already sampled the clock (phase decomposition).
void traceComplete(const char* cat, const char* name, const TraceContext& ctx,
                   std::int64_t tsNs, std::int64_t durNs);

/// Append an async 'b'/'e' pair with explicit timestamps. Async events
/// pair by (cat, id, name), so they may begin and end on any thread —
/// this is how cross-thread request phases (queue_wait, work, emit) are
/// recorded when a response is emitted, after the fact.
void traceAsyncSpan(const char* cat, const char* name, const TraceContext& ctx,
                    std::int64_t beginNs, std::int64_t endNs);

/// RAII synchronous span: 'B' at construction, 'E' at destruction, on the
/// current thread. Strictly LIFO, like a call stack.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name, const TraceContext& ctx)
      : cat_(cat), name_(name), ctx_(ctx) {
    traceBegin(cat_, name_, ctx_);
  }
  ~TraceSpan() { traceEnd(cat_, name_, ctx_); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* cat_;
  const char* name_;
  TraceContext ctx_;
};

/// The context ambiently visible on this thread — only used to carry a
/// request's identity across the exec::parallelFor boundary, where jobs
/// capture it and workers reinstall it.
const TraceContext& currentTraceContext();

/// Installs `ctx` as the current thread's context for its lifetime and
/// restores the previous one on destruction.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx);
  ~TraceContextScope();
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext previous_;
};

/// Copy out every recorded event: per-thread program order, threads
/// concatenated. Safe to call while writers are active (sees a prefix).
[[nodiscard]] std::vector<TraceEvent> journalSnapshot();

/// Total events discarded because a thread buffer was full.
[[nodiscard]] std::uint64_t journalDropped();

/// Clear all buffers and re-apply the current capacity. Callers must
/// guarantee no writer is active (tests; nanod between runs).
void journalReset();

/// Per-thread buffer capacity for buffers created or reset afterwards.
void setJournalCapacity(std::size_t events);
[[nodiscard]] std::size_t journalCapacity();

/// Serialize events as a Chrome trace-event JSON document
/// ({"traceEvents":[...]}), loadable by chrome://tracing and Perfetto.
void exportChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events);

}  // namespace nano::obs
