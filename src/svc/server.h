// The long-running evaluation service (`nanod`): wires the result cache,
// the scheduler, and the evaluator into one object, plus the per-session
// request pipeline shared by every front end — the stdin/stdout JSONL
// loop and each socket connection run the same Session: lines in, one
// response line out per request, in input order (so a replayed trace is
// byte-stable no matter which transport carried it).
//
// No thread belongs to a session: each response is emitted by the thread
// that already has it (see Session).
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

  /// Answer one request (already parsed): `done` receives its response
  /// exactly once. Counts svc/requests. A request without a deadline whose
  /// key is cached is answered on the calling thread before submit()
  /// returns; it never enters the queue, so it is never shed and never
  /// times out. Every other request goes through the scheduler, and `done`
  /// runs on the exec lane that evaluated it (or here, when it is shed).
  /// While tracing is enabled, a request arriving without a trace id is
  /// assigned one from a per-service counter (kDirectTraceBit set, so it
  /// can never collide with a session-assigned id).
  void submit(Request request, Scheduler::Completion done);

  /// submit() with the response delivered to a future.
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
  /// Responses not yet handed to the sink before the pipeline pushes back
  /// (stdin: the reader blocks; sockets: the receive loop stops reading
  /// that connection). Bounds memory when evaluation or the client is
  /// slower than the request stream.
  std::size_t emitQueueLimit = 8192;
};

/// One front-end pipeline: lines in (one thread at a time), ordered
/// response lines out through `sink`. The stdin server wraps exactly one
/// Session around cin/cout; the socket server runs one per connection —
/// same parse/submit/emit path, same stats, same tracing, so transports
/// cannot diverge behaviorally.
///
/// Responses wait in input order in a buffer guarded by the session's
/// mutex. Whichever thread completes the response at the head of that
/// buffer hands every ready response at the head to the sink, one such
/// drainer at a time: the consumeLine() thread for cache hits, invalid
/// lines and sheds, the exec lane for evaluated requests.
///
/// Every consumed line gets the session-unique trace id
/// makeSessionTraceId(sessionId, lineNo) — including lines that fail to
/// parse, so invalid responses are attributable in the slow log and
/// journal instead of all colliding on id 0.
class Session {
 public:
  /// `sink` receives each serialized response line (newline included) in
  /// input order, on the consumeLine() thread or on an exec lane, never
  /// on two threads at once. It must not call back into this Session.
  Session(Service& service, ServerOptions options,
          std::function<void(std::string&&)> sink, std::uint64_t sessionId);
  /// finish(): closes input if the caller did not, and waits for every
  /// response.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parse and submit one input line (CR/LF already stripped; blank lines
  /// are the caller's to skip). Blocks while pendingResponses() is at the
  /// emit-queue limit — callers that must not block (the socket receive
  /// loop) gate on pendingResponses() before calling.
  void consumeLine(const std::string& line);

  /// Responses submitted but not yet handed to the sink. Grows only in
  /// consumeLine's thread, and drops only after the sink has returned.
  [[nodiscard]] std::size_t pendingResponses() const {
    return pending_.load(std::memory_order_acquire);
  }

  /// No more consumeLine calls will come. Safe to call from any thread,
  /// idempotent, never blocks.
  void closeInput();

  /// True once input is closed and every response went to the sink.
  [[nodiscard]] bool finished() const {
    return finished_.load(std::memory_order_acquire);
  }

  /// Invoked once, after the final response has been handed to the sink:
  /// on the thread that emitted it, or in closeInput() when nothing was
  /// left. Set before the first consumeLine.
  void setDrainedCallback(std::function<void()> callback);

  /// closeInput() + wait until the session has finished. The session
  /// tally is valid after this returns.
  ServerStats finish();

  [[nodiscard]] std::uint64_t sessionId() const { return sessionId_; }

 private:
  struct Slot {
    Response response;
    bool ready = false;
  };

  /// Reserve the next response slot (blocking while at the limit).
  std::uint64_t reserve();
  /// Fill slot `seq`; drain the ready head when no drainer is active.
  void complete(std::uint64_t seq, Response&& response);
  /// Sink one response, then trace, time and tally it (drainer only).
  void emit(const Response& response);
  /// Last step after the final response: flush, mark, notify.
  void markFinished();

  Service& service_;
  ServerOptions options_;
  std::function<void(std::string&&)> sink_;
  std::uint64_t sessionId_;
  std::uint64_t consumedLines_ = 0;  ///< consumeLine's thread only
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> finished_{false};
  std::function<void()> drained_;
  std::int64_t slowThresholdNs_;

  std::mutex mutex_;
  std::condition_variable spaceCv_;  ///< consumeLine waits: below the limit
  std::condition_variable doneCv_;   ///< finish waits: markFinished returned
  std::deque<Slot> slots_;           ///< unemitted responses, input order
  std::uint64_t headSeq_ = 0;        ///< sequence number of slots_.front()
  bool draining_ = false;            ///< a thread is emitting the head
  bool inputClosed_ = false;
  bool done_ = false;                ///< markFinished() has returned
  ServerStats stats_;                ///< current drainer only, until done_
};

/// Serve JSONL requests from `in` until EOF: one response line per request
/// line, in input order (responses to later requests never overtake
/// earlier ones even when evaluation reorders). Blank lines are skipped;
/// unparseable lines produce status:"invalid" responses and keep serving.
///
/// Runs one Session (with a fresh session id from the service) whose sink
/// appends to `out`. While obs or tracing is on, the session records the
/// svc/phase/emit and svc/latency/total histograms and per-request
/// "request"/"work"/"emit" async trace spans at emission (queue_wait comes
/// from the scheduler, or is zero-length on a cache hit; dedup_join and
/// eval from the cache and handler), so queue_wait + work + emit
/// partitions each request's wall time exactly.
ServerStats runServer(std::istream& in, std::ostream& out, Service& service,
                      const ServerOptions& options);
ServerStats runServer(std::istream& in, std::ostream& out, Service& service);

}  // namespace nano::svc
