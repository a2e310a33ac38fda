// The long-running evaluation service (`nanod`): wires the result cache,
// the scheduler, and the evaluator into one object, plus the per-session
// request pipeline shared by every front end — the stdin/stdout JSONL
// loop and each socket connection run the same Session: lines in, one
// response line out per request, in input order (so a replayed trace is
// byte-stable no matter which transport carried it).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

#include "svc/cache.h"
#include "svc/eval.h"
#include "svc/scheduler.h"

namespace nano::svc {

struct ServiceOptions {
  /// Result-cache entries across all shards (0 disables caching+dedup).
  std::size_t cacheEntries = 4096;
  int cacheShards = 8;
  SchedulerOptions scheduler;
  /// Overload policy for submit(): false (default) sheds with a structured
  /// status when the queue is full; true blocks the submitter instead —
  /// use for replay/batch clients where losing requests is worse than
  /// slowing the reader. Socket front ends must keep this false: blocking
  /// the shared receive thread would stall every other connection.
  bool blockWhenFull = false;
};

// ------------------------------------------------------------ trace ids
//
// Trace ids must be unique across every concurrent submitter of one
// process — multiple socket connections, the stdin loop, and direct
// Service::submit callers all feed the same journal, and trace_lint's
// per-request accounting breaks on collisions. The layout:
//
//   bit 63          : set for ids assigned by Service::submit directly
//   bits 32..62     : session ordinal (from Service::newSessionId(), >= 1)
//   bits 0..31      : 1-based request sequence within the session
inline constexpr std::uint64_t kTraceSeqBits = 32;
inline constexpr std::uint64_t kTraceSeqMask = (1ull << kTraceSeqBits) - 1;
inline constexpr std::uint64_t kDirectTraceBit = 1ull << 63;

/// Trace id of request `seq` (1-based) on session `sessionId` (>= 1).
constexpr std::uint64_t makeSessionTraceId(std::uint64_t sessionId,
                                           std::uint64_t seq) {
  return (sessionId << kTraceSeqBits) | (seq & kTraceSeqMask);
}
constexpr std::uint64_t traceSessionOf(std::uint64_t traceId) {
  return (traceId & ~kDirectTraceBit) >> kTraceSeqBits;
}
constexpr std::uint64_t traceSeqOf(std::uint64_t traceId) {
  return traceId & kTraceSeqMask;
}

/// A running service instance: thread-safe, many concurrent submitters.
class Service {
 public:
  /// Publishes the kernel/isa_avx2 gauge (kernel::publishActiveIsa), so
  /// the metrics carry the dispatch ISA even before any kernel runs.
  explicit Service(ServiceOptions options = {});

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admit one request (already parsed). Counts svc/requests. While
  /// tracing is enabled, a request arriving without a trace id is
  /// assigned one from a per-service counter (kDirectTraceBit set, so it
  /// can never collide with a session-assigned id).
  std::future<Response> submit(Request request);

  /// Synchronous convenience: submit and wait.
  Response call(Request request);

  /// Wait until everything admitted so far has completed.
  void drain();

  /// Allocate a session ordinal (1, 2, ...) for a front-end pipeline;
  /// every Session feeding this service must hold a distinct one so the
  /// trace ids it assigns stay process-unique.
  std::uint64_t newSessionId() {
    return nextSessionId_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  [[nodiscard]] ResultCache& cache() { return cache_; }
  [[nodiscard]] std::size_t queueDepth() const { return scheduler_.queueDepth(); }

 private:
  Response handle(const Request& request);

  ServiceOptions options_;
  ResultCache cache_;
  std::atomic<std::uint64_t> nextTraceId_{1};
  std::atomic<std::uint64_t> nextSessionId_{1};
  Scheduler scheduler_;  ///< last member: stops before cache destructs
};

/// Tally of one session (or one runServer() call), by response status.
struct ServerStats {
  std::size_t lines = 0;     ///< non-blank input lines consumed
  std::size_t ok = 0;
  std::size_t errors = 0;
  std::size_t invalid = 0;
  std::size_t shed = 0;
  std::size_t timeouts = 0;
  std::size_t slow = 0;      ///< responses over ServerOptions::slowThresholdMs

  ServerStats& operator+=(const ServerStats& other);
};

/// Front-end knobs shared by runServer() and every socket session.
/// Defaults preserve the bare three-argument runServer behavior exactly.
struct ServerOptions {
  /// When non-null, every response slower (submit -> emitted) than
  /// slowThresholdMs appends one structured JSONL record here with the
  /// full phase decomposition. Requires obs or tracing to be enabled
  /// (timestamps are not captured otherwise). Writes are serialized
  /// internally, so many sessions may share one stream.
  std::ostream* slowLog = nullptr;
  double slowThresholdMs = 50.0;
  /// Pending responses buffered between submission and emission before
  /// the pipeline pushes back (stdin: the reader blocks; sockets: the
  /// receive loop stops reading that connection). Bounds memory when
  /// evaluation or the client is slower than the request stream.
  std::size_t emitQueueLimit = 8192;
};

/// One front-end pipeline: lines in (any thread, one at a time), ordered
/// response lines out through `sink` on a dedicated emitter thread. The
/// stdin server wraps exactly one Session around cin/cout; the socket
/// server runs one per connection — same parse/submit/emit path, same
/// stats, same tracing, so transports cannot diverge behaviorally.
///
/// Every consumed line gets the session-unique trace id
/// makeSessionTraceId(sessionId, lineNo) — including lines that fail to
/// parse, so invalid responses are attributable in the slow log and
/// journal instead of all colliding on id 0.
class Session {
 public:
  /// `sink` receives each serialized response line (newline included) in
  /// input order, called from the emitter thread. It must not call back
  /// into this Session.
  Session(Service& service, ServerOptions options,
          std::function<void(std::string&&)> sink, std::uint64_t sessionId);
  /// Joins the emitter (closing input first if the caller did not).
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parse and submit one input line (CR/LF already stripped; blank lines
  /// are the caller's to skip). Blocks while pendingResponses() is at the
  /// emit-queue limit — callers that must not block (the socket receive
  /// loop) gate on pendingResponses() before calling.
  void consumeLine(const std::string& line);

  /// Responses submitted but not yet handed to the sink. Monotonic
  /// observations: grows only in consumeLine's thread, shrinks only in
  /// the emitter's.
  [[nodiscard]] std::size_t pendingResponses() const {
    return pending_.load(std::memory_order_acquire);
  }

  /// No more consumeLine calls will come; the emitter finishes what is
  /// queued and exits. Safe to call from any thread, idempotent, never
  /// blocks.
  void closeInput();

  /// True once the emitter has emitted everything and exited.
  [[nodiscard]] bool finished() const {
    return finished_.load(std::memory_order_acquire);
  }

  /// Invoked (once, from the emitter thread) after the final response has
  /// been handed to the sink. Set before the first consumeLine.
  void setDrainedCallback(std::function<void()> callback);

  /// closeInput() + join the emitter. The session tally is valid after
  /// this returns.
  ServerStats finish();

  [[nodiscard]] std::uint64_t sessionId() const { return sessionId_; }

 private:
  /// Bounded hand-off of pending responses from the consumer to the
  /// emitter, preserving submission order. Ready failure responses count
  /// too, so a flood of sheds cannot grow memory without bound.
  class EmitQueue {
   public:
    explicit EmitQueue(std::size_t limit) : limit_(limit == 0 ? 1 : limit) {}
    void push(std::future<Response> f);
    void close();
    bool pop(std::future<Response>& out);

   private:
    std::mutex mutex_;
    std::condition_variable itemCv_, spaceCv_;
    std::deque<std::future<Response>> pending_;
    std::size_t limit_;
    bool closed_ = false;
  };

  void emitterLoop();

  Service& service_;
  ServerOptions options_;
  std::function<void(std::string&&)> sink_;
  std::uint64_t sessionId_;
  std::uint64_t consumedLines_ = 0;  ///< consumeLine's thread only
  EmitQueue queue_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> finished_{false};
  std::atomic<bool> inputClosed_{false};
  std::function<void()> drained_;
  ServerStats stats_;             ///< emitter thread only, until finish()
  std::int64_t slowThresholdNs_;
  bool joined_ = false;
  std::thread emitter_;
};

/// Serve JSONL requests from `in` until EOF: one response line per request
/// line, in input order (responses to later requests never overtake
/// earlier ones even when evaluation reorders). Blank lines are skipped;
/// unparseable lines produce status:"invalid" responses and keep serving.
///
/// Runs one Session (with a fresh session id from the service) whose sink
/// appends to `out`. While obs or tracing is on, the emitter records the
/// svc/phase/emit and svc/latency/total histograms and per-request
/// "request"/"work"/"emit" async trace spans (queue_wait comes from the
/// scheduler, dedup_join and eval from the cache and handler), so
/// queue_wait + work + emit partitions each request's wall time exactly.
ServerStats runServer(std::istream& in, std::ostream& out, Service& service,
                      const ServerOptions& options);
ServerStats runServer(std::istream& in, std::ostream& out, Service& service);

}  // namespace nano::svc
