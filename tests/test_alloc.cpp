// Deterministic allocation gate for the simulated MPI collectives.
//
// This binary (and only this one) replaces the global operator new with a
// counting one. Heap allocation counts are a pure function of the
// simulated run, so unlike wall time they can be gated exactly: a world
// collective must cost a fixed number of allocations however many ranks
// join it, i.e. no per-rank coroutine frame or per-rank container growth.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "pfsem/mpi/world.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pfsem::mpi {
namespace {

/// Heap allocations made while `loops` rounds of (barrier, allreduce) run
/// on a world of `nranks`. Spawning (one root frame per rank) happens
/// before the counted window.
std::uint64_t allocations_during(int nranks, int loops) {
  sim::Engine engine;
  trace::Collector collector(nranks);
  World world(engine, collector, WorldConfig{.nranks = nranks});
  auto prog = [&](Rank r) -> sim::Task<void> {
    for (int i = 0; i < loops; ++i) {
      co_await world.barrier(r);
      co_await world.allreduce(r, 64);
    }
  };
  for (Rank r = 0; r < nranks; ++r) engine.spawn(prog(r), r);
  const std::uint64_t before = g_allocations.load();
  engine.run();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(collector.bundle().comm.collectives.size(),
            static_cast<std::size_t>(2 * loops));
  return after - before;
}

/// Allocations per collective in steady state: the difference of two loop
/// counts cancels the one-time costs (engine queue capacity, root frames).
double allocations_per_collective(int nranks) {
  constexpr int kShort = 8;
  constexpr int kLong = 40;
  const std::uint64_t a = allocations_during(nranks, kShort);
  const std::uint64_t b = allocations_during(nranks, kLong);
  return static_cast<double>(b - a) / (2.0 * (kLong - kShort));
}

TEST(AllocGate, CountingHookSeesCoroutineFrames) {
  // Guard against a silently inactive hook: a coroutine frame must count.
  sim::Engine engine;
  auto task = []() -> sim::Task<void> { co_return; };
  const std::uint64_t before = g_allocations.load();
  engine.spawn(task());
  engine.run();
  EXPECT_GE(g_allocations.load() - before, 1u);
}

TEST(AllocGate, WorldCollectiveAllocationsDoNotGrowWithRanks) {
  const double at64 = allocations_per_collective(64);
  const double at1024 = allocations_per_collective(1024);
  RecordProperty("allocs_per_collective_64", std::to_string(at64));
  RecordProperty("allocs_per_collective_1024", std::to_string(at1024));
  // One pending-collective record (the struct, its joined flags, arrival
  // and waiter arrays) plus amortized comm-log growth — no per-rank term.
  EXPECT_EQ(at1024, at64);
  EXPECT_LE(at64, 8.0);
}

}  // namespace
}  // namespace pfsem::mpi
