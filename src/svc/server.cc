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
  const Outcome outcome =
      request.kind == RequestKind::Stats
          ? compute()
          : cache_.getOrCompute(request.canonicalKey(), compute, request.trace,
                                &dedupJoinNs);
  Response response = makeResponse(request, outcome);
  response.evalNs = evalNs;
  response.dedupJoinNs = dedupJoinNs;
  return response;
}

std::future<Response> Service::submit(Request request) {
  NANO_OBS_COUNT("svc/requests", 1);
  if (request.trace.id == 0 && obs::tracingEnabled()) {
    // The direct bit keeps these from ever colliding with the
    // session-assigned ids front ends hand out (satellite of the
    // multi-connection work: mixed direct-submit + server use must keep
    // per-request trace accounting intact).
    request.trace.id =
        kDirectTraceBit | nextTraceId_.fetch_add(1, std::memory_order_relaxed);
  }
  return options_.blockWhenFull ? scheduler_.submitBlocking(std::move(request))
                                : scheduler_.submit(std::move(request));
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

std::future<Response> readyResponse(Response response) {
  std::promise<Response> p;
  p.set_value(std::move(response));
  return p.get_future();
}

std::string fmtMs(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(ns) * 1e-6);
  return buf;
}

/// Sessions may share one slow-log stream (every socket connection logs
/// into the same file), so record writes are serialized process-wide.
std::mutex& slowLogMutex() {
  static std::mutex mutex;
  return mutex;
}

/// One structured slow-request JSONL record with the phase decomposition.
void writeSlowRecord(std::ostream& os, const Response& response,
                     std::int64_t emitNs) {
  std::lock_guard<std::mutex> lock(slowLogMutex());
  os << "{\"id\":" << quoteJsonString(response.id) << ",\"kind\":\""
     << (response.hasKind ? kindName(response.kind) : "") << "\",\"status\":\""
     << statusName(response.status) << "\",\"trace\":" << response.traceId
     << ",\"wall_ms\":" << fmtMs(emitNs - response.submitNs)
     << ",\"queue_wait_ms\":" << fmtMs(response.dispatchNs - response.submitNs)
     << ",\"dedup_join_ms\":" << fmtMs(response.dedupJoinNs)
     << ",\"eval_ms\":" << fmtMs(response.evalNs)
     << ",\"emit_ms\":" << fmtMs(emitNs - response.doneNs) << "}\n";
}

}  // namespace

// ----------------------------------------------------------- EmitQueue

void Session::EmitQueue::push(std::future<Response> f) {
  std::unique_lock<std::mutex> lock(mutex_);
  spaceCv_.wait(lock, [this] { return pending_.size() < limit_; });
  pending_.push_back(std::move(f));
  lock.unlock();
  itemCv_.notify_one();
}

void Session::EmitQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  itemCv_.notify_all();
}

bool Session::EmitQueue::pop(std::future<Response>& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  itemCv_.wait(lock, [this] { return !pending_.empty() || closed_; });
  if (pending_.empty()) return false;
  out = std::move(pending_.front());
  pending_.pop_front();
  lock.unlock();
  spaceCv_.notify_one();
  return true;
}

// ------------------------------------------------------------- Session

Session::Session(Service& service, ServerOptions options,
                 std::function<void(std::string&&)> sink,
                 std::uint64_t sessionId)
    : service_(service),
      options_(options),
      sink_(std::move(sink)),
      sessionId_(sessionId),
      queue_(options.emitQueueLimit),
      slowThresholdNs_(
          static_cast<std::int64_t>(options.slowThresholdMs * 1e6)) {
  emitter_ = std::thread([this] { emitterLoop(); });
}

Session::~Session() { finish(); }

void Session::consumeLine(const std::string& line) {
  ++consumedLines_;
  const std::uint64_t traceId = makeSessionTraceId(sessionId_, consumedLines_);
  Request request;
  std::string error;
  if (!parseRequest(line, request, error)) {
    NANO_OBS_COUNT("svc/invalid", 1);
    // Even a line that never parsed gets its real trace id: the journal
    // and slow log would otherwise pile every invalid line onto id 0.
    request.trace.id = traceId;
    pending_.fetch_add(1, std::memory_order_acq_rel);
    queue_.push(readyResponse(
        makeFailure(request, ResponseStatus::Invalid, std::move(error))));
    return;
  }
  request.trace.id = traceId;
  pending_.fetch_add(1, std::memory_order_acq_rel);
  queue_.push(service_.submit(std::move(request)));
}

void Session::closeInput() {
  if (!inputClosed_.exchange(true, std::memory_order_acq_rel)) {
    queue_.close();
  }
}

void Session::setDrainedCallback(std::function<void()> callback) {
  drained_ = std::move(callback);
}

ServerStats Session::finish() {
  closeInput();
  if (!joined_) {
    emitter_.join();
    joined_ = true;
    stats_.lines = consumedLines_;
  }
  return stats_;
}

void Session::emitterLoop() {
  std::future<Response> next;
  while (queue_.pop(next)) {
    const Response response = next.get();
    sink_(response.toJsonLine() + '\n');
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
  if (options_.slowLog != nullptr) {
    std::lock_guard<std::mutex> lock(slowLogMutex());
    options_.slowLog->flush();
  }
  finished_.store(true, std::memory_order_release);
  if (drained_) drained_();
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
