// Admission and dispatch for the evaluation service: a bounded three-lane
// priority queue drained by one batcher thread that evaluates each batch
// on the nano::exec pool (requests within a batch run on parallel lanes;
// nested model parallelism runs inline, so there is no pool deadlock).
//
// Overload policy is reject-not-buffer: when the queue is full, submit()
// completes the request immediately with status "shed" instead of growing
// without bound or blocking the acceptor (submitBlocking() opts into
// waiting for space when the caller prefers backpressure to load loss).
// A request whose deadline has expired when its lane picks it up is
// completed with status "timeout", without evaluation.
//
// Each request completes through its own callback: on the exec lane that
// evaluated it, or on the submitting thread when it is shed. The
// future-returning overloads wrap that for callers that want to wait.
//
// Instrumented: svc/queue_depth + svc/queue_peak gauges, svc/batches and
// svc/shed and svc/timeouts counters, svc/batch_size sample distribution,
// and the svc/phase/queue_wait latency histogram. Each dispatched item's
// submit/dispatch/done timestamps are stamped onto its Response so the
// session can decompose per-request wall time.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "svc/request.h"

namespace nano::svc {

struct SchedulerOptions {
  /// Total queued requests across the three lanes before shedding.
  std::size_t maxQueue = 4096;
  /// Requests dispatched per exec batch. 1 degenerates to serial dispatch.
  std::size_t maxBatch = 64;
};

class Scheduler {
 public:
  /// `handler` turns one request into its response; it must be safe to
  /// call concurrently from exec lanes and must not throw (the service's
  /// cache+evaluate handler satisfies both).
  Scheduler(std::function<Response(const Request&)> handler,
            SchedulerOptions options = {});
  /// Drains everything still queued, then joins the batcher.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Receives a request's response exactly once, on the exec lane that
  /// evaluated it (or, for a shed, on the submitting thread). Must not
  /// throw.
  using Completion = std::function<void(Response&&)>;

  /// Admit one request; `done` gets its response once it is evaluated (or
  /// refused). Never blocks: a full queue sheds, a stopped scheduler sheds
  /// with "scheduler stopped".
  void submit(Request request, Completion done);

  /// Like submit(), but waits for queue space instead of shedding —
  /// client-side backpressure for trusted in-process callers.
  void submitBlocking(Request request, Completion done);

  /// submit() / submitBlocking() with the response delivered to a future.
  std::future<Response> submit(Request request);
  std::future<Response> submitBlocking(Request request);

  /// Block until every admitted request has completed.
  void drain();

  /// Stop accepting and finish queued work. Idempotent and thread-safe:
  /// any number of threads may call stop() concurrently (the socket
  /// server's signal-driven drain races the destructor here); exactly one
  /// joins the batcher and the rest block until the join completes.
  void stop();

  [[nodiscard]] std::size_t queueDepth() const;

 private:
  struct Item {
    Request request;
    Completion done;
    std::chrono::steady_clock::time_point deadline;
    bool hasDeadline = false;
    std::int64_t submitNs = 0;  ///< obs::timingNowNs() at admission
  };

  void enqueue(Request request, Completion done, bool block);
  void batcherLoop();

  std::function<Response(const Request&)> handler_;
  SchedulerOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable workCv_;   ///< batcher waits: work or stop
  std::condition_variable spaceCv_;  ///< submitBlocking waits: space
  std::condition_variable idleCv_;   ///< drain waits: empty and not busy
  std::array<std::deque<Item>, 3> lanes_;  ///< indexed by Priority
  std::size_t queued_ = 0;
  std::size_t inBatch_ = 0;  ///< items currently being evaluated
  std::size_t peakDepth_ = 0;
  bool stopping_ = false;
  std::once_flag joinOnce_;  ///< exactly one stop() joins the batcher
  std::thread batcher_;
};

/// A completion that fulfils a promise, paired with that promise's future:
/// the adapter behind every future-returning submit().
std::pair<Scheduler::Completion, std::future<Response>> promisedCompletion();

}  // namespace nano::svc
