// Unit tests for the discrete-event engine, coroutine tasks, wait queues,
// and the clock-skew model.

#include <gtest/gtest.h>

#include <vector>

#include "pfsem/sim/clock.hpp"
#include "pfsem/sim/engine.hpp"
#include "pfsem/sim/wait_queue.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::sim {
namespace {

TEST(Engine, DelaysAdvanceTimeInOrder) {
  Engine e;
  std::vector<std::pair<int, SimTime>> events;
  auto proc = [](Engine* eng, int id, SimDuration d,
                 std::vector<std::pair<int, SimTime>>* out) -> Task<void> {
    co_await eng->delay(d);
    out->emplace_back(id, eng->now());
  };
  e.spawn(proc(&e, 1, 300, &events));
  e.spawn(proc(&e, 2, 100, &events));
  e.spawn(proc(&e, 3, 200, &events));
  e.run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (std::pair<int, SimTime>{2, 100}));
  EXPECT_EQ(events[1], (std::pair<int, SimTime>{3, 200}));
  EXPECT_EQ(events[2], (std::pair<int, SimTime>{1, 300}));
  EXPECT_EQ(e.live_roots(), 0);
}

TEST(Engine, ZeroDelayIsFairFifo) {
  Engine e;
  std::vector<int> order;
  auto proc = [](Engine* eng, int id, std::vector<int>* out) -> Task<void> {
    co_await eng->delay(0);
    out->push_back(id);
    co_await eng->delay(0);
    out->push_back(id + 10);
  };
  e.spawn(proc(&e, 1, &order));
  e.spawn(proc(&e, 2, &order));
  e.run();
  // Interleaved round-robin at the same timestamp, insertion order stable.
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 11, 12}));
  EXPECT_EQ(e.now(), 0);
}

TEST(Engine, NestedTasksTransferSynchronously) {
  Engine e;
  std::vector<int> trail;
  auto inner = [](Engine* eng, std::vector<int>* out) -> Task<int> {
    out->push_back(2);
    co_await eng->delay(50);
    out->push_back(3);
    co_return 42;
  };
  auto outer = [inner](Engine* eng, std::vector<int>* out) -> Task<void> {
    out->push_back(1);
    const int v = co_await inner(eng, out);
    out->push_back(v);
  };
  e.spawn(outer(&e, &trail));
  e.run();
  EXPECT_EQ(trail, (std::vector<int>{1, 2, 3, 42}));
  EXPECT_EQ(e.now(), 50);
}

TEST(Engine, ExceptionInRootPropagatesFromRun) {
  Engine e;
  auto bad = [](Engine* eng) -> Task<void> {
    co_await eng->delay(10);
    throw Error("simulated failure");
  };
  e.spawn(bad(&e));
  EXPECT_THROW(e.run(), Error);
}

TEST(Engine, ExceptionPropagatesThroughNestedAwait) {
  Engine e;
  bool caught = false;
  auto inner = [](Engine* eng) -> Task<void> {
    co_await eng->delay(1);
    throw Error("inner boom");
  };
  auto outer = [inner](Engine* eng, bool* flag) -> Task<void> {
    try {
      co_await inner(eng);
    } catch (const Error&) {
      *flag = true;
    }
  };
  e.spawn(outer(&e, &caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, DeadlockDetected) {
  Engine e;
  WaitQueue wq(e);
  auto stuck = [](WaitQueue* q) -> Task<void> { co_await q->wait(); };
  e.spawn(stuck(&wq));
  EXPECT_THROW(e.run(), Error);  // queue drains with a live blocked root
}

struct CountOnDestroy {
  int* destroyed;
  ~CountOnDestroy() { ++*destroyed; }
};

Task<void> park_forever(WaitQueue* q, int* destroyed) {
  CountOnDestroy g{destroyed};
  co_await q->wait();
}

Task<void> park_nested(WaitQueue* q, int* destroyed) {
  CountOnDestroy g{destroyed};
  co_await park_forever(q, destroyed);
}

TEST(Engine, FailedRunDestroysStrandedFrames) {
  // A failed run cannot resume its blocked roots, so it destroys their
  // frames: locals of every nested task unwind, nothing leaks.
  auto failing = [](Engine* eng) -> Task<void> {
    co_await eng->delay(10);
    throw Error("boom");
  };
  for (const bool deadlock : {true, false}) {
    Engine e;
    WaitQueue wq(e);
    int destroyed = 0;
    e.spawn(park_nested(&wq, &destroyed));
    if (!deadlock) e.spawn(failing(&e));
    EXPECT_THROW(e.run(), Error);
    EXPECT_EQ(destroyed, 2) << (deadlock ? "deadlock" : "first error");
  }
}

TEST(Engine, SchedulingInPastRejected) {
  Engine e;
  auto proc = [](Engine* eng) -> Task<void> { co_await eng->delay(100); };
  e.spawn(proc(&e));
  e.run();
  EXPECT_EQ(e.now(), 100);
  EXPECT_THROW(e.schedule(50, std::noop_coroutine()), Error);
}

TEST(Engine, EventCountTracksDispatches) {
  Engine e;
  auto proc = [](Engine* eng) -> Task<void> {
    for (int i = 0; i < 5; ++i) co_await eng->delay(1);
  };
  e.spawn(proc(&e));
  e.run();
  // 1 spawn deferral + 5 delays.
  EXPECT_EQ(e.events_dispatched(), 6u);
}

TEST(WaitQueue, WakeAllReleasesEveryoneAtCurrentTime) {
  Engine e;
  WaitQueue wq(e);
  std::vector<std::pair<int, SimTime>> woken;
  auto waiter = [](Engine* eng, WaitQueue* q, int id,
                   std::vector<std::pair<int, SimTime>>* out) -> Task<void> {
    co_await q->wait();
    out->emplace_back(id, eng->now());
  };
  auto waker = [](Engine* eng, WaitQueue* q) -> Task<void> {
    co_await eng->delay(500);
    q->wake_all();
  };
  e.spawn(waiter(&e, &wq, 1, &woken));
  e.spawn(waiter(&e, &wq, 2, &woken));
  e.spawn(waker(&e, &wq));
  e.run();
  ASSERT_EQ(woken.size(), 2u);
  EXPECT_EQ(woken[0], (std::pair<int, SimTime>{1, 500}));  // FIFO
  EXPECT_EQ(woken[1], (std::pair<int, SimTime>{2, 500}));
}

TEST(WaitQueue, WakeOneReleasesFifo) {
  Engine e;
  WaitQueue wq(e);
  std::vector<int> order;
  auto waiter = [](WaitQueue* q, int id, std::vector<int>* out) -> Task<void> {
    co_await q->wait();
    out->push_back(id);
  };
  auto waker = [](Engine* eng, WaitQueue* q) -> Task<void> {
    co_await eng->delay(10);
    q->wake_one();
    co_await eng->delay(10);
    q->wake_one();
  };
  e.spawn(waiter(&wq, 7, &order));
  e.spawn(waiter(&wq, 8, &order));
  e.spawn(waker(&e, &wq));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{7, 8}));
}

TEST(Clock, SkewAndDriftApplied) {
  ClockModel c{.offset = 1000, .drift_ppb = 1e6};  // 0.1% drift
  EXPECT_EQ(c.local_time(0), 1000);
  // 1 second of global time drifts by 1 ms at 1e6 ppb.
  EXPECT_EQ(c.local_time(1'000'000'000), 1'000'000'000 + 1000 + 1'000'000);
}

TEST(Clock, SkewedClockFamilyDeterministicAndBounded) {
  const auto a = make_skewed_clocks(16, 20'000, 100.0, 99);
  const auto b = make_skewed_clocks(16, 20'000, 100.0, 99);
  ASSERT_EQ(a.size(), 16u);
  EXPECT_EQ(a[0].offset, 0) << "rank 0 is the reference clock";
  EXPECT_EQ(a[0].drift_ppb, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_LE(std::abs(a[i].offset), 20'000);
    EXPECT_LE(std::abs(a[i].drift_ppb), 100.0);
  }
}

TEST(Clock, LocalOrderPreservedUnderSkew) {
  // A rank's own timestamps must stay monotone regardless of skew/drift —
  // the property the offset tracker relies on.
  const auto clocks = make_skewed_clocks(8, 20'000, 500.0, 1234);
  for (const auto& c : clocks) {
    SimTime prev = c.local_time(0);
    for (SimTime t = 1000; t <= 1'000'000; t += 1000) {
      const SimTime cur = c.local_time(t);
      EXPECT_GT(cur, prev);
      prev = cur;
    }
  }
}


TEST(EngineStress, ThousandsOfInterleavedTasksStayOrdered) {
  Engine e;
  std::vector<SimTime> completions;
  completions.reserve(2000);
  auto proc = [](Engine* eng, int id, std::vector<SimTime>* out) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await eng->delay(100 + (id * 37 + i * 11) % 500);
    }
    out->push_back(eng->now());
  };
  for (int id = 0; id < 2000; ++id) e.spawn(proc(&e, id, &completions));
  e.run();
  ASSERT_EQ(completions.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(completions.begin(), completions.end()))
      << "root completions must be observed in simulated-time order";
  EXPECT_EQ(e.live_roots(), 0);
}

TEST(EngineStress, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e;
    std::vector<int> order;
    auto proc = [](Engine* eng, int id, std::vector<int>* out) -> Task<void> {
      co_await eng->delay((id * 7919) % 1000);
      out->push_back(id);
      co_await eng->delay((id * 104729) % 1000);
      out->push_back(-id);
    };
    for (int id = 0; id < 500; ++id) e.spawn(proc(&e, id, &order));
    e.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace pfsem::sim
