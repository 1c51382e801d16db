// The engine's determinism contract as a property: events fire in
// (time, insertion-seq) order. Over seeded random schedules — delay(0)
// fairness bursts, short delays and far-future wakeups — every firing
// lands at the time it was scheduled for, and the firing sequence equals
// the schedule sorted by (time, seq), the reference order. Plus the edge
// cases that order has to survive: same-time FIFO, TaskKilled unwinding
// in the middle of a same-time burst, wait-queue wakes, past-scheduling
// rejection, and long same-time bursts.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "pfsem/sim/engine.hpp"
#include "pfsem/sim/wait_queue.hpp"
#include "pfsem/util/error.hpp"
#include "pfsem/util/rng.hpp"

namespace pfsem::sim {
namespace {

/// One firing observation: (task id, simulated time).
using Firing = std::pair<int, SimTime>;

/// One scheduled delay as the test saw it: the time it must fire at and
/// its position in schedule-call order (the engine's insertion seq
/// restricted to the test's own events).
struct Scheduled {
  SimTime time = 0;
  std::uint64_t seq = 0;
  SimTime fired_at = -1;
  bool operator<(const Scheduled& o) const {
    return std::tie(time, seq) < std::tie(o.time, o.seq);
  }
};

/// Drive `ntasks` coroutines through `rounds` delays drawn from a seeded,
/// delay(0)-heavy distribution with a tail of far-future wakeups. Returns
/// every scheduled delay in firing order.
std::vector<Scheduled> random_schedule(std::uint64_t seed, int ntasks,
                                       int rounds) {
  Engine e;
  std::vector<Scheduled> fired;
  std::uint64_t next_seq = 0;
  auto proc = [](Engine* eng, std::uint64_t task_seed, int n,
                 std::uint64_t* seq, std::vector<Scheduled>* out) -> Task<void> {
    Rng rng(task_seed);
    for (int i = 0; i < n; ++i) {
      SimDuration d = 0;
      const auto roll = rng.below(100);
      if (roll >= 70 && roll < 85) {
        d = static_cast<SimDuration>(1 + rng.below(63));
      } else if (roll >= 85) {
        d = static_cast<SimDuration>(64 + rng.below(500));
      }
      // co_await schedules synchronously, so no other event can take a
      // seq between this increment and the engine's.
      Scheduled s{eng->now() + d, (*seq)++};
      co_await eng->delay(d);
      s.fired_at = eng->now();
      out->push_back(s);
    }
  };
  for (int id = 0; id < ntasks; ++id) {
    e.spawn(proc(&e, seed * 1000003 + static_cast<std::uint64_t>(id), rounds,
                 &next_seq, &fired));
  }
  e.run();
  return fired;
}

TEST(SchedulerDiff, RandomSchedulesFireInTimeSeqOrder) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const auto fired = random_schedule(seed, 24, 40);
    ASSERT_EQ(fired.size(), 24u * 40u) << "seed=" << seed;
    for (const Scheduled& s : fired) {
      ASSERT_EQ(s.fired_at, s.time) << "seed=" << seed << " seq=" << s.seq;
    }
    auto reference = fired;
    std::sort(reference.begin(), reference.end());
    for (std::size_t i = 0; i < fired.size(); ++i) {
      ASSERT_EQ(fired[i].seq, reference[i].seq)
          << "seed=" << seed << " firing " << i;
    }
  }
}

TEST(SchedulerDiff, SameTimeEventsFireInInsertionOrder) {
  // The fairness contract behind delay(0): at one timestamp, coroutines
  // resume in the order they suspended — round-robin, insertion stable.
  Engine e;
  std::vector<int> order;
  auto proc = [](Engine* eng, int id, std::vector<int>* out) -> Task<void> {
    for (int round = 0; round < 3; ++round) {
      co_await eng->delay(0);
      out->push_back(id + round * 100);
    }
  };
  for (int id = 0; id < 8; ++id) e.spawn(proc(&e, id, &order));
  e.run();
  std::vector<int> want;
  for (int round = 0; round < 3; ++round) {
    for (int id = 0; id < 8; ++id) want.push_back(id + round * 100);
  }
  EXPECT_EQ(order, want);
  EXPECT_EQ(e.now(), 0);
}

TEST(SchedulerDiff, TaskKilledMidBucketUnwindsIdentically) {
  // One task of a same-time bucket of events dies via TaskKilled partway
  // through a delay(0) burst; the firings must be identical to the
  // reference order: the survivors keep their round-robin order, and the
  // killed task's remaining events never fire.
  Engine e;
  std::vector<Firing> firings;
  auto proc = [](Engine* eng, int id, std::vector<Firing>* out) -> Task<void> {
    for (int i = 0; i < 6; ++i) {
      co_await eng->delay(0);
      if (id == 3 && i == 2) throw TaskKilled(id);
      out->emplace_back(id, eng->now());
    }
    co_await eng->delay(10);
    out->emplace_back(id + 1000, eng->now());
  };
  for (int id = 0; id < 8; ++id) e.spawn(proc(&e, id, &firings), id);
  e.run();
  std::vector<Firing> want;
  for (int i = 0; i < 6; ++i) {
    for (int id = 0; id < 8; ++id) {
      if (id != 3 || i < 2) want.emplace_back(id, 0);
    }
  }
  for (int id = 0; id < 8; ++id) {
    if (id != 3) want.emplace_back(id + 1000, 10);
  }
  EXPECT_EQ(firings, want);
  EXPECT_EQ(e.killed_roots(), 1);
  EXPECT_EQ(e.live_roots(), 0);
  // 8 root starts, 7 x 7 survivor delays, 3 delays of the killed task.
  EXPECT_EQ(e.events_dispatched(), 8u + 7u * 7u + 3u);
}

TEST(SchedulerDiff, WaitQueueWakesPreserveFifoUnderBucketing) {
  // WaitQueue::wake_all reschedules every parked waiter into one
  // same-time bucket at the current time and must keep FIFO park order.
  Engine e;
  WaitQueue wq(e);
  std::vector<int> order;
  auto waiter = [](WaitQueue* q, int id, std::vector<int>* out) -> Task<void> {
    co_await q->wait();
    out->push_back(id);
  };
  auto waker = [](Engine* eng, WaitQueue* q) -> Task<void> {
    co_await eng->delay(500);
    q->wake_all();
  };
  for (int id = 0; id < 6; ++id) e.spawn(waiter(&wq, id, &order));
  e.spawn(waker(&e, &wq));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(e.now(), 500);
}

TEST(SchedulerDiff, PastSchedulingRejectedInBothKinds) {
  // Both ways into the queue refuse the simulated past: schedule() with
  // an absolute time, and a negative delay() from inside a task.
  Engine e;
  bool rejected = false;
  auto proc = [](Engine* eng, bool* out) -> Task<void> {
    co_await eng->delay(100);
    try {
      co_await eng->delay(-1);
    } catch (const Error&) {
      *out = true;
    }
  };
  e.spawn(proc(&e, &rejected));
  e.run();
  EXPECT_TRUE(rejected);
  EXPECT_EQ(e.now(), 100);
  EXPECT_THROW(e.schedule(50, std::noop_coroutine()), Error);
}

TEST(SchedulerDiff, LongSameTimeBurstStaysOrderedAndBounded) {
  // Thousands of delay(0) round-trips at one timestamp; the order must
  // stay exact, and the dispatch count is bounded by exactly one event
  // per round-trip plus one start per root.
  Engine e;
  std::vector<int> order;
  auto proc = [](Engine* eng, int id, std::vector<int>* out) -> Task<void> {
    for (int i = 0; i < 400; ++i) co_await eng->delay(0);
    out->push_back(id);
  };
  for (int id = 0; id < 64; ++id) e.spawn(proc(&e, id, &order));
  e.run();
  std::vector<int> want;
  for (int id = 0; id < 64; ++id) want.push_back(id);
  EXPECT_EQ(order, want);
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.events_dispatched(), 64u * 401u);
}

}  // namespace
}  // namespace pfsem::sim
