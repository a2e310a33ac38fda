#include "svc/server.h"

#include <cstdio>
#include <istream>
#include <ostream>
#include <utility>

#include "kernel/dispatch.h"
#include "obs/obs.h"
#include "svc/json.h"

namespace nano::svc {

Service::Service(ServiceOptions options)
    : options_(options),
      cache_(options.cacheEntries, options.cacheShards),
      scheduler_([this](const Request& request) { return handle(request); },
                 options.scheduler) {
  kernel::publishActiveIsa();
}

Response Service::handle(const Request& request) {
  std::int64_t evalNs = 0;
  std::int64_t dedupJoinNs = 0;
  auto compute = [&] {
    // Install the request's identity for the duration of the evaluation
    // so the eval span and any exec regions it forks attribute to it.
    const obs::TraceContextScope scope(request.trace);
    const std::int64_t begin = obs::timingNowNs();
    Outcome outcome = evaluate(request);
    const std::int64_t end = obs::timingNowNs();
    if (begin > 0) {
      evalNs = end - begin;
      if (obs::enabled()) {
        obs::MetricsRegistry::instance()
            .timer("svc/phase/eval")
            .record(static_cast<double>(evalNs) * 1e-9);
      }
    }
    return outcome;
  };
  // Stats snapshots live process state: identical keys do not imply
  // identical payloads, so they bypass the cache and dedup entirely.
  // Every other request arrives with the key submit() built.
  const Outcome outcome =
      request.kind == RequestKind::Stats
          ? compute()
          : cache_.getOrCompute(request.key, compute, request.trace,
                                &dedupJoinNs);
  Response response = makeResponse(request, outcome);
  response.evalNs = evalNs;
  response.dedupJoinNs = dedupJoinNs;
  return response;
}

void Service::submit(Request request, Scheduler::Completion done) {
  NANO_OBS_COUNT("svc/requests", 1);
  if (request.trace.id == 0 && obs::tracingEnabled()) {
    // The direct bit keeps these from ever colliding with the
    // session-assigned ids front ends hand out (satellite of the
    // multi-connection work: mixed direct-submit + server use must keep
    // per-request trace accounting intact).
    request.trace.id =
        kDirectTraceBit | nextTraceId_.fetch_add(1, std::memory_order_relaxed);
  }
  if (request.kind != RequestKind::Stats) {
    request.key = request.canonicalKey();
    // A request with a deadline keeps the queue path, where an expired
    // deadline answers "timeout" whether or not the key is cached.
    if (request.deadlineMs < 0.0) {
      if (const auto hit = cache_.find(request.key, request.trace)) {
        Response response = makeResponse(request, *hit);
        // Zero-length queue_wait and work keep the trace's per-request
        // partition exact: a hit spends all its time in emit.
        const std::int64_t now = obs::timingNowNs();
        response.submitNs = response.dispatchNs = response.doneNs = now;
        if (now > 0) {
          obs::traceAsyncSpan("svc", "queue_wait", request.trace, now, now);
          if (obs::enabled()) {
            obs::MetricsRegistry::instance()
                .timer("svc/phase/queue_wait")
                .record(0.0);
          }
        }
        done(std::move(response));
        return;
      }
    }
  }
  if (options_.blockWhenFull) {
    scheduler_.submitBlocking(std::move(request), std::move(done));
  } else {
    scheduler_.submit(std::move(request), std::move(done));
  }
}

std::future<Response> Service::submit(Request request) {
  auto [done, future] = promisedCompletion();
  submit(std::move(request), std::move(done));
  return std::move(future);
}

Response Service::call(Request request) {
  return submit(std::move(request)).get();
}

void Service::drain() { scheduler_.drain(); }

ServerStats& ServerStats::operator+=(const ServerStats& other) {
  lines += other.lines;
  ok += other.ok;
  errors += other.errors;
  invalid += other.invalid;
  shed += other.shed;
  timeouts += other.timeouts;
  slow += other.slow;
  return *this;
}

namespace {

/// Sessions may share one slow-log stream (every socket connection logs
/// into the same file), so record writes are serialized process-wide.
std::mutex& slowLogMutex() {
  static std::mutex mutex;
  return mutex;
}

/// One structured slow-request JSONL record with the phase decomposition.
void writeSlowRecord(std::ostream& os, const Response& response,
                     std::int64_t emitNs) {
  std::string record = "{\"id\":";
  appendJsonString(record, response.id);
  record += ",\"kind\":\"";
  record += response.hasKind ? kindName(response.kind) : "";
  record += "\",\"status\":\"";
  record += statusName(response.status);
  record += "\",\"trace\":";
  record += std::to_string(response.traceId);
  auto milliseconds = [&record](const char* name, std::int64_t ns) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\"%s\":%.6f", name,
                  static_cast<double>(ns) * 1e-6);
    record += buf;
  };
  milliseconds("wall_ms", emitNs - response.submitNs);
  milliseconds("queue_wait_ms", response.dispatchNs - response.submitNs);
  milliseconds("dedup_join_ms", response.dedupJoinNs);
  milliseconds("eval_ms", response.evalNs);
  milliseconds("emit_ms", emitNs - response.doneNs);
  record += "}\n";
  std::lock_guard<std::mutex> lock(slowLogMutex());
  os << record;
}

}  // namespace

// ------------------------------------------------------------- Session

Session::Session(Service& service, ServerOptions options,
                 std::function<void(std::string&&)> sink,
                 std::uint64_t sessionId)
    : service_(service),
      options_(options),
      sink_(std::move(sink)),
      sessionId_(sessionId),
      slowThresholdNs_(
          static_cast<std::int64_t>(options.slowThresholdMs * 1e6)) {
  if (options_.emitQueueLimit == 0) options_.emitQueueLimit = 1;
}

Session::~Session() { finish(); }

std::uint64_t Session::reserve() {
  std::unique_lock<std::mutex> lock(mutex_);
  spaceCv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) < options_.emitQueueLimit;
  });
  pending_.fetch_add(1, std::memory_order_acq_rel);
  slots_.emplace_back();
  return headSeq_ + slots_.size() - 1;
}

void Session::consumeLine(const std::string& line) {
  ++consumedLines_;
  Request request;
  std::string error;
  const bool parsed = parseRequest(line, request, error);
  // Even a line that never parsed gets its real trace id: the journal
  // and slow log would otherwise pile every invalid line onto id 0.
  request.trace.id = makeSessionTraceId(sessionId_, consumedLines_);
  const std::uint64_t seq = reserve();
  if (!parsed) {
    NANO_OBS_COUNT("svc/invalid", 1);
    complete(seq, makeFailure(request, ResponseStatus::Invalid, std::move(error)));
    return;
  }
  service_.submit(std::move(request), [this, seq](Response&& response) {
    complete(seq, std::move(response));
  });
}

void Session::complete(std::uint64_t seq, Response&& response) {
  std::unique_lock<std::mutex> lock(mutex_);
  Slot& slot = slots_[seq - headSeq_];
  slot.response = std::move(response);
  slot.ready = true;
  // The active drainer, or whoever completes the head, emits this one.
  if (draining_ || seq != headSeq_) return;
  draining_ = true;
  while (!slots_.empty() && slots_.front().ready) {
    const Response ready = std::move(slots_.front().response);
    slots_.pop_front();
    ++headSeq_;
    lock.unlock();
    emit(ready);
    lock.lock();
    spaceCv_.notify_one();
  }
  draining_ = false;
  const bool last = inputClosed_ && slots_.empty();
  lock.unlock();
  if (last) markFinished();
}

void Session::emit(const Response& response) {
  std::string line = response.toJsonLine();
  line.push_back('\n');
  sink_(std::move(line));
  pending_.fetch_sub(1, std::memory_order_acq_rel);
  const std::int64_t emitNs = obs::timingNowNs();
  const bool timed = response.submitNs > 0 && response.dispatchNs > 0 &&
                     response.doneNs > 0 && emitNs > 0;
  if (timed) {
    const obs::TraceContext trace{response.traceId};
    obs::traceAsyncSpan("svc", "request", trace, response.submitNs, emitNs);
    obs::traceAsyncSpan("svc", "work", trace, response.dispatchNs,
                        response.doneNs);
    obs::traceAsyncSpan("svc", "emit", trace, response.doneNs, emitNs);
    if (obs::enabled()) {
      auto& registry = obs::MetricsRegistry::instance();
      registry.timer("svc/phase/emit")
          .record(static_cast<double>(emitNs - response.doneNs) * 1e-9);
      registry.timer("svc/latency/total")
          .record(static_cast<double>(emitNs - response.submitNs) * 1e-9);
    }
  }
  if (timed && emitNs - response.submitNs >= slowThresholdNs_) {
    ++stats_.slow;
    NANO_OBS_COUNT("svc/slow_requests", 1);
    if (options_.slowLog != nullptr) {
      writeSlowRecord(*options_.slowLog, response, emitNs);
    }
  }
  switch (response.status) {
    case ResponseStatus::Ok: ++stats_.ok; break;
    case ResponseStatus::Error: ++stats_.errors; break;
    case ResponseStatus::Invalid: ++stats_.invalid; break;
    case ResponseStatus::Shed: ++stats_.shed; break;
    case ResponseStatus::Timeout: ++stats_.timeouts; break;
  }
}

void Session::closeInput() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (inputClosed_) return;
  inputClosed_ = true;
  const bool last = slots_.empty() && !draining_;
  lock.unlock();
  if (last) markFinished();
}

void Session::markFinished() {
  if (options_.slowLog != nullptr) {
    std::lock_guard<std::mutex> lock(slowLogMutex());
    options_.slowLog->flush();
  }
  finished_.store(true, std::memory_order_release);
  if (drained_) drained_();
  // Notify under the lock: finish() may destroy the session as soon as it
  // sees done_, so nothing here may touch it after the unlock.
  const std::lock_guard<std::mutex> lock(mutex_);
  done_ = true;
  doneCv_.notify_all();
}

void Session::setDrainedCallback(std::function<void()> callback) {
  drained_ = std::move(callback);
}

ServerStats Session::finish() {
  closeInput();
  std::unique_lock<std::mutex> lock(mutex_);
  doneCv_.wait(lock, [this] { return done_; });
  stats_.lines = consumedLines_;
  return stats_;
}

// ----------------------------------------------------------- runServer

ServerStats runServer(std::istream& in, std::ostream& out, Service& service,
                      const ServerOptions& options) {
  Session session(
      service, options, [&out](std::string&& line) { out << line; },
      service.newSessionId());
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF input
    if (line.empty()) continue;
    session.consumeLine(line);
  }
  const ServerStats stats = session.finish();
  out.flush();
  return stats;
}

ServerStats runServer(std::istream& in, std::ostream& out, Service& service) {
  return runServer(in, out, service, ServerOptions{});
}

}  // namespace nano::svc
