#include "svc/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec.h"

namespace nano::svc {
namespace {

Request requestNamed(const std::string& id,
                     Priority priority = Priority::Normal) {
  Request r;
  r.id = id;
  r.kind = RequestKind::Figure2;
  r.priority = priority;
  r.params = Fig2Params{};
  return r;
}

TEST(Scheduler, EvaluatesSubmittedRequests) {
  Scheduler scheduler(
      [](const Request& r) {
        Outcome o;
        o.data = "{}";
        return makeResponse(r, o);
      },
      {});
  auto f = scheduler.submit(requestNamed("r1"));
  const Response resp = f.get();
  EXPECT_EQ(resp.status, ResponseStatus::Ok);
  EXPECT_EQ(resp.id, "r1");
}

/// A handler that blocks until released, so tests can hold the batcher
/// busy and fill the queue deterministically.
class GatedHandler {
 public:
  Response operator()(const Request& request) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      enteredCv_.notify_all();
      releaseCv_.wait(lock, [this] { return released_; });
    }
    order_.push_back(request.id);
    Outcome o;
    o.data = "{}";
    return makeResponse(request, o);
  }

  void waitUntilEntered(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    enteredCv_.wait(lock, [&] { return entered_ >= n; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    releaseCv_.notify_all();
  }

  /// Completion order (only safe to read after all futures resolved AND
  /// batches are serial, i.e. exec at 1 lane).
  const std::vector<std::string>& order() const { return order_; }

 private:
  std::mutex mutex_;
  std::condition_variable enteredCv_, releaseCv_;
  int entered_ = 0;
  bool released_ = false;
  std::vector<std::string> order_;
};

TEST(Scheduler, ShedsWithStructuredStatusWhenQueueFull) {
  SchedulerOptions options;
  options.maxQueue = 3;
  options.maxBatch = 1;
  GatedHandler gate;
  Scheduler scheduler([&gate](const Request& r) { return gate(r); }, options);

  // First request enters the batcher and parks in the handler; the queue
  // itself is now empty, so three more fit, and everything past that must
  // shed immediately (without blocking this thread).
  auto parked = scheduler.submit(requestNamed("parked"));
  gate.waitUntilEntered(1);
  std::vector<std::future<Response>> queued;
  for (int i = 0; i < 3; ++i) {
    queued.push_back(scheduler.submit(requestNamed("q" + std::to_string(i))));
  }
  const auto before = std::chrono::steady_clock::now();
  auto shedF = scheduler.submit(requestNamed("overflow"));
  const Response shed = shedF.get();
  const auto elapsed = std::chrono::steady_clock::now() - before;
  EXPECT_EQ(shed.status, ResponseStatus::Shed);
  EXPECT_NE(shed.error.find("queue full"), std::string::npos);
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 1.0)
      << "shedding must not block";

  gate.release();
  EXPECT_EQ(parked.get().status, ResponseStatus::Ok);
  for (auto& f : queued) EXPECT_EQ(f.get().status, ResponseStatus::Ok);
}

TEST(Scheduler, PriorityLanesDrainHighBeforeNormalBeforeLow) {
  SchedulerOptions options;
  options.maxQueue = 16;
  options.maxBatch = 1;  // serial dispatch => completion order == drain order
  GatedHandler gate;
  Scheduler scheduler([&gate](const Request& r) { return gate(r); }, options);

  auto parked = scheduler.submit(requestNamed("parked"));
  gate.waitUntilEntered(1);
  std::vector<std::future<Response>> futures;
  futures.push_back(scheduler.submit(requestNamed("low1", Priority::Low)));
  futures.push_back(scheduler.submit(requestNamed("norm1", Priority::Normal)));
  futures.push_back(scheduler.submit(requestNamed("high1", Priority::High)));
  futures.push_back(scheduler.submit(requestNamed("norm2", Priority::Normal)));
  futures.push_back(scheduler.submit(requestNamed("high2", Priority::High)));
  gate.release();
  for (auto& f : futures) f.get();
  scheduler.drain();

  const std::vector<std::string> expected = {"parked", "high1", "high2",
                                             "norm1", "norm2", "low1"};
  EXPECT_EQ(gate.order(), expected);
}

TEST(Scheduler, ZeroDeadlineTimesOutDeterministically) {
  std::atomic<int> evaluated{0};
  Scheduler scheduler(
      [&](const Request& r) {
        evaluated.fetch_add(1);
        Outcome o;
        o.data = "{}";
        return makeResponse(r, o);
      },
      {});
  Request r = requestNamed("late");
  r.deadlineMs = 0.0;
  const Response resp = scheduler.submit(std::move(r)).get();
  EXPECT_EQ(resp.status, ResponseStatus::Timeout);
  EXPECT_EQ(evaluated.load(), 0);

  // A generous deadline is not triggered.
  Request ok = requestNamed("on-time");
  ok.deadlineMs = 60000.0;
  EXPECT_EQ(scheduler.submit(std::move(ok)).get().status, ResponseStatus::Ok);
  EXPECT_EQ(evaluated.load(), 1);
}

TEST(Scheduler, DeadlineIsCheckedAtEachItemsOwnDispatch) {
  // On one lane the second request of a batch starts only after the first
  // has been evaluated. Its deadline counts from admission to that start,
  // so a 50 ms budget behind a 200 ms evaluation has expired, even though
  // it had not when the batch began.
  const int savedLanes = exec::threadCount();
  exec::setGlobalThreadCount(1);
  std::vector<std::string> evaluated;  // batcher thread only
  GatedHandler gate;
  {
    Scheduler scheduler(
        [&](const Request& r) {
          if (r.id == "slow") {
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
          }
          evaluated.push_back(r.id);
          return gate(r);
        },
        {});
    // Park the batcher so that "slow" and "late" queue into one batch.
    auto parked = scheduler.submit(requestNamed("parked"));
    gate.waitUntilEntered(1);
    auto slow = scheduler.submit(requestNamed("slow"));
    Request late = requestNamed("late");
    late.deadlineMs = 50.0;
    auto lateF = scheduler.submit(std::move(late));
    gate.release();
    EXPECT_EQ(parked.get().status, ResponseStatus::Ok);
    EXPECT_EQ(slow.get().status, ResponseStatus::Ok);
    const Response resp = lateF.get();
    EXPECT_EQ(resp.status, ResponseStatus::Timeout) << resp.error;
  }
  const std::vector<std::string> expected = {"parked", "slow"};
  EXPECT_EQ(evaluated, expected);
  exec::setGlobalThreadCount(savedLanes);
}

TEST(Scheduler, SubmitAfterStopSheds) {
  Scheduler scheduler(
      [](const Request& r) {
        Outcome o;
        o.data = "{}";
        return makeResponse(r, o);
      },
      {});
  scheduler.stop();
  const Response resp = scheduler.submit(requestNamed("too-late")).get();
  EXPECT_EQ(resp.status, ResponseStatus::Shed);
  EXPECT_NE(resp.error.find("stopped"), std::string::npos);
}

TEST(Scheduler, DrainWaitsForAllAdmittedWork) {
  std::atomic<int> completed{0};
  Scheduler scheduler(
      [&](const Request& r) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        completed.fetch_add(1);
        Outcome o;
        o.data = "{}";
        return makeResponse(r, o);
      },
      {});
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(scheduler.submit(requestNamed(std::to_string(i))));
  }
  scheduler.drain();
  EXPECT_EQ(completed.load(), 50);
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
}

TEST(Scheduler, DestructorCompletesQueuedPromises) {
  std::vector<std::future<Response>> futures;
  {
    Scheduler scheduler(
        [](const Request& r) {
          Outcome o;
          o.data = "{}";
          return makeResponse(r, o);
        },
        {});
    for (int i = 0; i < 20; ++i) {
      futures.push_back(scheduler.submit(requestNamed(std::to_string(i))));
    }
  }  // ~Scheduler drains
  for (auto& f : futures) EXPECT_EQ(f.get().status, ResponseStatus::Ok);
}

TEST(Scheduler, SubmitBlockingWaitsInsteadOfShedding) {
  SchedulerOptions options;
  options.maxQueue = 2;
  options.maxBatch = 1;
  GatedHandler gate;
  Scheduler scheduler([&gate](const Request& r) { return gate(r); }, options);
  auto parked = scheduler.submit(requestNamed("parked"));
  gate.waitUntilEntered(1);
  auto q0 = scheduler.submit(requestNamed("q0"));
  auto q1 = scheduler.submit(requestNamed("q1"));

  // Queue is full; a blocking submit must wait, then succeed once the
  // batcher frees a slot.
  std::atomic<bool> admitted{false};
  std::thread blocker([&] {
    auto f = scheduler.submitBlocking(requestNamed("patient"));
    admitted.store(true);
    EXPECT_EQ(f.get().status, ResponseStatus::Ok);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  gate.release();
  blocker.join();
  EXPECT_TRUE(admitted.load());
  for (auto* f : {&parked, &q0, &q1}) {
    EXPECT_EQ(f->get().status, ResponseStatus::Ok);
  }
}

TEST(Scheduler, StopIsIdempotentAndSafeFromManyThreads) {
  // Regression: stop() used to join the batcher unconditionally, so a
  // second caller (destructor racing a signal-driven shutdown) crashed
  // with std::system_error. Now exactly one caller joins and the rest
  // block until the join completes — hammer it from many threads while
  // submitters are still feeding the queue. Run under TSan in CI.
  for (int round = 0; round < 8; ++round) {
    Scheduler scheduler(
        [](const Request& r) {
          Outcome o;
          o.data = "{}";
          return makeResponse(r, o);
        },
        {});
    std::vector<std::thread> threads;
    std::atomic<int> submitted{0};
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&scheduler, &submitted, t] {
        for (int i = 0; i < 50; ++i) {
          // Sheds (post-stop) are fine; crashing or hanging is not.
          auto f = scheduler.submit(
              requestNamed(std::to_string(t) + "/" + std::to_string(i)));
          submitted.fetch_add(1);
          f.wait();
        }
      });
    }
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&scheduler] { scheduler.stop(); });
    }
    threads.emplace_back([&scheduler] { scheduler.drain(); });
    for (auto& thread : threads) thread.join();
    scheduler.stop();  // idempotent after the race too
    EXPECT_EQ(submitted.load(), 200);
  }
}

TEST(Scheduler, AbsurdDeadlineIsClampedNotUndefined) {
  // duration_cast<nanoseconds>(duration<double,milli>(1e300)) is UB on
  // overflow; the scheduler clamps at kMaxDeadlineMs before converting.
  Scheduler scheduler(
      [](const Request& r) {
        Outcome o;
        o.data = "{}";
        return makeResponse(r, o);
      },
      {});
  Request r = requestNamed("huge");
  r.deadlineMs = 1e300;
  const Response resp = scheduler.submit(std::move(r)).get();
  // A clamped deadline is ~an hour away: the request must evaluate
  // normally, not time out (and certainly not overflow into "already
  // expired").
  EXPECT_EQ(resp.status, ResponseStatus::Ok);

  Request negative = requestNamed("zero");
  negative.deadlineMs = 0.0;
  EXPECT_EQ(scheduler.submit(std::move(negative)).get().status,
            ResponseStatus::Timeout);
}

}  // namespace
}  // namespace nano::svc
