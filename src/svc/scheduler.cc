#include "svc/scheduler.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/exec.h"
#include "obs/obs.h"

namespace nano::svc {

Scheduler::Scheduler(std::function<Response(const Request&)> handler,
                     SchedulerOptions options)
    : handler_(std::move(handler)), options_(options) {
  if (options_.maxQueue == 0) options_.maxQueue = 1;
  if (options_.maxBatch == 0) options_.maxBatch = 1;
  batcher_ = std::thread([this] { batcherLoop(); });
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::submit(Request request, Completion done) {
  enqueue(std::move(request), std::move(done), /*block=*/false);
}

void Scheduler::submitBlocking(Request request, Completion done) {
  enqueue(std::move(request), std::move(done), /*block=*/true);
}

std::pair<Scheduler::Completion, std::future<Response>> promisedCompletion() {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  return {[promise](Response&& response) {
            promise->set_value(std::move(response));
          },
          std::move(future)};
}

std::future<Response> Scheduler::submit(Request request) {
  auto [done, future] = promisedCompletion();
  submit(std::move(request), std::move(done));
  return std::move(future);
}

std::future<Response> Scheduler::submitBlocking(Request request) {
  auto [done, future] = promisedCompletion();
  submitBlocking(std::move(request), std::move(done));
  return std::move(future);
}

void Scheduler::enqueue(Request request, Completion done, bool block) {
  Item item;
  item.submitNs = obs::timingNowNs();
  if (request.deadlineMs >= 0.0) {
    item.hasDeadline = true;
    // Client-supplied: an unclamped 1e300 ms overflows the duration_cast
    // into UB. parseRequest already clamps wire input; clamp again here so
    // direct in-process submitters get the same guarantee.
    const double ms = std::min(request.deadlineMs, kMaxDeadlineMs);
    item.deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
  }

  bool stopped = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (block) {
      spaceCv_.wait(lock, [this] {
        return stopping_ || queued_ < options_.maxQueue;
      });
    }
    stopped = stopping_;
    if (!stopped && queued_ < options_.maxQueue) {
      item.request = std::move(request);
      item.done = std::move(done);
      lanes_[static_cast<int>(item.request.priority)].push_back(std::move(item));
      ++queued_;
      if (queued_ + inBatch_ > peakDepth_) {
        peakDepth_ = queued_ + inBatch_;
        NANO_OBS_GAUGE("svc/queue_peak", static_cast<double>(peakDepth_));
      }
      NANO_OBS_GAUGE("svc/queue_depth", static_cast<double>(queued_));
      lock.unlock();
      workCv_.notify_one();
      return;
    }
  }
  NANO_OBS_COUNT("svc/shed", 1);
  Response shed = makeFailure(
      request, ResponseStatus::Shed,
      stopped ? "scheduler stopped"
              : "queue full (" + std::to_string(options_.maxQueue) + " requests)");
  shed.submitNs = shed.dispatchNs = shed.doneNs = item.submitNs;
  done(std::move(shed));
}

void Scheduler::batcherLoop() {
  std::vector<Item> batch;
  batch.reserve(options_.maxBatch);
  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      workCv_.wait(lock, [this] { return queued_ > 0 || stopping_; });
      if (queued_ == 0 && stopping_) return;
      // Priority order: drain High entirely before Normal before Low.
      for (auto& lane : lanes_) {
        while (!lane.empty() && batch.size() < options_.maxBatch) {
          batch.push_back(std::move(lane.front()));
          lane.pop_front();
        }
        if (batch.size() >= options_.maxBatch) break;
      }
      queued_ -= batch.size();
      inBatch_ = batch.size();
      NANO_OBS_GAUGE("svc/queue_depth", static_cast<double>(queued_));
    }
    spaceCv_.notify_all();

    NANO_OBS_COUNT("svc/batches", 1);
    if (obs::enabled()) {
      obs::MetricsRegistry::instance()
          .timer("svc/batch_size")
          .record(static_cast<double>(batch.size()));
    }
    exec::parallelFor(batch.size(), [&](std::size_t i) {
      Item& item = batch[i];
      const std::int64_t dispatchNs = obs::timingNowNs();
      Response response;
      // Each item's own dispatch time: on one lane the k-th item starts
      // only after the k-1 evaluations ahead of it in the batch.
      if (item.hasDeadline &&
          item.deadline <= std::chrono::steady_clock::now()) {
        NANO_OBS_COUNT("svc/timeouts", 1);
        response = makeFailure(item.request, ResponseStatus::Timeout,
                               "deadline expired before evaluation");
      } else {
        response = handler_(item.request);
      }
      response.submitNs = item.submitNs;
      response.dispatchNs = dispatchNs;
      response.doneNs = obs::timingNowNs();
      if (item.submitNs > 0 && dispatchNs > 0) {
        const std::int64_t queueWaitNs = dispatchNs - item.submitNs;
        obs::traceAsyncSpan("svc", "queue_wait", item.request.trace,
                            item.submitNs, dispatchNs);
        if (obs::enabled()) {
          obs::MetricsRegistry::instance()
              .timer("svc/phase/queue_wait")
              .record(static_cast<double>(queueWaitNs) * 1e-9);
        }
      }
      item.done(std::move(response));
    });

    {
      std::lock_guard<std::mutex> lock(mutex_);
      inBatch_ = 0;
    }
    idleCv_.notify_all();
  }
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock, [this] { return queued_ == 0 && inBatch_ == 0; });
}

void Scheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  workCv_.notify_all();
  spaceCv_.notify_all();
  // Concurrent stop() calls both used to pass a joinable() check and both
  // reach join() — UB. call_once serializes them: one thread joins, every
  // other caller blocks here until the batcher has actually exited, so
  // stop() returning always means "the batcher is gone".
  std::call_once(joinOnce_, [this] { batcher_.join(); });
}

std::size_t Scheduler::queueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_ + inBatch_;
}

}  // namespace nano::svc
