// Unit tests for the simulated MPI layer: barrier/collective semantics,
// point-to-point matching, and the CommLog events the happens-before
// analysis consumes.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "pfsem/fault/injector.hpp"
#include "pfsem/mpi/world.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::mpi {
namespace {

struct Fixture {
  explicit Fixture(int nranks, WorldConfig cfg = {}) : collector(nranks) {
    cfg.nranks = nranks;
    world.emplace(engine, collector, cfg);
  }
  sim::Engine engine;
  trace::Collector collector;
  std::optional<World> world;
};

TEST(Barrier, NobodyLeavesBeforeLastArrives) {
  Fixture f(8);
  SimTime last_enter = 0;
  SimTime first_exit = kTimeNever;
  auto prog = [&](Rank r) -> sim::Task<void> {
    co_await f.engine.delay(100 * (r + 1));  // staggered arrivals
    last_enter = std::max(last_enter, f.engine.now());
    co_await f.world->barrier(r);
    first_exit = std::min(first_exit, f.engine.now());
  };
  for (Rank r = 0; r < 8; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  EXPECT_GE(first_exit, last_enter);
  ASSERT_EQ(f.collector.bundle().comm.collectives.size(), 1u);
  const auto& ev = f.collector.bundle().comm.collectives[0];
  EXPECT_EQ(ev.kind, trace::CollectiveKind::Barrier);
  EXPECT_EQ(ev.arrivals.size(), 8u);
}

TEST(Barrier, SubgroupBarrierOnlyBlocksMembers) {
  Fixture f(8);
  const Group sub{0, 2, 4};
  bool outsider_done = false;
  auto member = [&](Rank r) -> sim::Task<void> {
    co_await f.world->barrier(r, sub);
  };
  auto outsider = [&]() -> sim::Task<void> {
    co_await f.engine.delay(1);
    outsider_done = true;
    co_return;
  };
  for (Rank r : sub) f.engine.spawn(member(r));
  f.engine.spawn(outsider());
  f.engine.run();
  EXPECT_TRUE(outsider_done);
}

TEST(Barrier, BackToBackBarriersDoNotMixEpochs) {
  Fixture f(4);
  std::vector<int> exits;
  auto prog = [&](Rank r) -> sim::Task<void> {
    co_await f.engine.delay(static_cast<SimDuration>(r) * 50);
    co_await f.world->barrier(r);
    exits.push_back(1);
    co_await f.world->barrier(r);
    exits.push_back(2);
  };
  for (Rank r = 0; r < 4; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  ASSERT_EQ(exits.size(), 8u);
  // All epoch-1 exits precede all epoch-2 exits.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(exits[static_cast<std::size_t>(i)], 1);
  for (int i = 4; i < 8; ++i) EXPECT_EQ(exits[static_cast<std::size_t>(i)], 2);
  EXPECT_EQ(f.collector.bundle().comm.collectives.size(), 2u);
}

TEST(P2P, SendThenRecvMatches) {
  Fixture f(2);
  std::uint64_t got = 0;
  auto sender = [&]() -> sim::Task<void> { co_await f.world->send(0, 1, 5, 4096); };
  auto receiver = [&]() -> sim::Task<void> {
    co_await f.engine.delay(1000);
    got = co_await f.world->recv(1, 0, 5);
  };
  f.engine.spawn(sender());
  f.engine.spawn(receiver());
  f.engine.run();
  EXPECT_EQ(got, 4096u);
  ASSERT_EQ(f.collector.bundle().comm.p2p.size(), 1u);
  const auto& ev = f.collector.bundle().comm.p2p[0];
  EXPECT_EQ(ev.src, 0);
  EXPECT_EQ(ev.dst, 1);
  EXPECT_EQ(ev.tag, 5);
  EXPECT_LT(ev.t_send_start, ev.t_recv_end);
}

TEST(P2P, RecvBeforeSendAlsoMatches) {
  Fixture f(2);
  std::uint64_t got = 0;
  auto receiver = [&]() -> sim::Task<void> { got = co_await f.world->recv(1, 0, 9); };
  auto sender = [&]() -> sim::Task<void> {
    co_await f.engine.delay(2000);
    co_await f.world->send(0, 1, 9, 128);
  };
  f.engine.spawn(receiver());
  f.engine.spawn(sender());
  f.engine.run();
  EXPECT_EQ(got, 128u);
}

TEST(P2P, TagsDoNotCrossMatch) {
  Fixture f(2);
  std::vector<std::uint64_t> got;
  auto sender = [&]() -> sim::Task<void> {
    co_await f.world->send(0, 1, /*tag=*/1, 111);
    co_await f.world->send(0, 1, /*tag=*/2, 222);
  };
  auto receiver = [&]() -> sim::Task<void> {
    // Receive tag 2 first; must not consume the tag-1 message.
    got.push_back(co_await f.world->recv(1, 0, 2));
    got.push_back(co_await f.world->recv(1, 0, 1));
  };
  f.engine.spawn(sender());
  f.engine.spawn(receiver());
  f.engine.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{222, 111}));
}

TEST(P2P, FifoPerChannelNonOvertaking) {
  Fixture f(2);
  std::vector<std::uint64_t> got;
  auto sender = [&]() -> sim::Task<void> {
    for (std::uint64_t i = 1; i <= 3; ++i) co_await f.world->send(0, 1, 0, i);
  };
  auto receiver = [&]() -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) got.push_back(co_await f.world->recv(1, 0, 0));
  };
  f.engine.spawn(sender());
  f.engine.spawn(receiver());
  f.engine.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Collectives, EachKindLogsMatchedEvent) {
  Fixture f(4);
  auto prog = [&](Rank r) -> sim::Task<void> {
    co_await f.world->bcast(r, 0, 1024);
    co_await f.world->reduce(r, 0, 64);
    co_await f.world->allreduce(r, 8);
    co_await f.world->gather(r, 0, 256);
    co_await f.world->allgather(r, 32);
    co_await f.world->scatter(r, 0, 128);
    co_await f.world->alltoall(r, 16);
  };
  for (Rank r = 0; r < 4; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  const auto& log = f.collector.bundle().comm.collectives;
  ASSERT_EQ(log.size(), 7u);
  using K = trace::CollectiveKind;
  EXPECT_EQ(log[0].kind, K::Bcast);
  EXPECT_EQ(log[0].root, 0);
  EXPECT_EQ(log[1].kind, K::Reduce);
  EXPECT_EQ(log[2].kind, K::Allreduce);
  EXPECT_EQ(log[3].kind, K::Gather);
  EXPECT_EQ(log[4].kind, K::Allgather);
  EXPECT_EQ(log[5].kind, K::Scatter);
  EXPECT_EQ(log[6].kind, K::Alltoall);
  for (const auto& ev : log) EXPECT_EQ(ev.arrivals.size(), 4u);
}

TEST(Collectives, MismatchedKindThrows) {
  Fixture f(2);
  auto a = [&]() -> sim::Task<void> { co_await f.world->bcast(0, 0, 8); };
  auto b = [&]() -> sim::Task<void> { co_await f.world->allreduce(1, 8); };
  f.engine.spawn(a());
  f.engine.spawn(b());
  EXPECT_THROW(f.engine.run(), Error);
}

TEST(Collectives, OutOfRangeRankInWorldGroupThrows) {
  // World-sized groups skip the membership search; the range check must
  // still reject a rank outside the world.
  Fixture f(4);
  for (const Rank bad : {Rank{-1}, Rank{4}}) {
    try {
      (void)f.world->barrier(bad);
      FAIL() << "rank " << bad << " joined a 4-rank world barrier";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "rank not a member of collective group"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(f.collector.bundle().comm.collectives.empty());
}

TEST(Collectives, NonMemberOfSubgroupThrows) {
  Fixture f(8);
  const Group sub{0, 2, 4};
  try {
    (void)f.world->barrier(3, sub);
    FAIL() << "rank 3 joined a barrier of {0, 2, 4}";
  } catch (const Error& e) {
    EXPECT_NE(
        std::string(e.what()).find("rank not a member of collective group"),
        std::string::npos)
        << e.what();
  }
}

TEST(Collectives, RankCrashedBeforeCollectiveUnwindsAsKilledRoot) {
  Fixture f(4);
  fault::Injector injector(fault::FaultPlan{}, /*seed=*/1,
                           /*ranks_per_node=*/4);
  f.world->set_fault_injector(&injector);
  injector.mark_crashed(3);
  const Group survivors{0, 1, 2};
  bool victim_passed = false;
  auto prog = [&](Rank r) -> sim::Task<void> {
    co_await f.engine.delay(10);
    if (r == 3) {
      co_await f.world->allreduce(r, 8);  // throws TaskKilled at the call
      victim_passed = true;
    } else {
      co_await f.world->barrier(r, survivors);
    }
  };
  for (Rank r = 0; r < 4; ++r) f.engine.spawn(prog(r), r);
  f.engine.run();
  EXPECT_FALSE(victim_passed);
  EXPECT_EQ(f.engine.killed_roots(), 1);
  EXPECT_EQ(f.engine.live_roots(), 0);
  // The victim never joined: only the survivors' barrier is logged.
  const auto& log = f.collector.bundle().comm.collectives;
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].kind, trace::CollectiveKind::Barrier);
  EXPECT_EQ(log[0].arrivals.size(), 3u);
}

TEST(Collectives, ExitJitterSpreadsRanks) {
  WorldConfig cfg;
  cfg.exit_jitter = 10'000;
  Fixture f(16, cfg);
  auto prog = [&](Rank r) -> sim::Task<void> { co_await f.world->barrier(r); };
  for (Rank r = 0; r < 16; ++r) f.engine.spawn(prog(r));
  f.engine.run();
  const auto& ev = f.collector.bundle().comm.collectives.at(0);
  std::set<SimTime> exits;
  for (const auto& a : ev.arrivals) exits.insert(a.t_exit);
  EXPECT_GT(exits.size(), 1u) << "jitter should spread exit times";
}

TEST(World, NodePlacement) {
  Fixture f(16, WorldConfig{.ranks_per_node = 4});
  EXPECT_EQ(f.world->node_of(0), 0);
  EXPECT_EQ(f.world->node_of(3), 0);
  EXPECT_EQ(f.world->node_of(4), 1);
  EXPECT_EQ(f.world->node_of(15), 3);
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    Fixture f(8);
    auto prog = [&f](Rank r) -> sim::Task<void> {
      co_await f.world->barrier(r);
      co_await f.world->allreduce(r, 64);
      if (r == 0) co_await f.world->send(0, 1, 3, 99);
      if (r == 1) (void)co_await f.world->recv(1, 0, 3);
      co_await f.world->barrier(r);
    };
    for (Rank r = 0; r < 8; ++r) f.engine.spawn(prog(r));
    f.engine.run();
    return f.engine.now();
  };
  EXPECT_EQ(run_once(), run_once());
}


TEST(P2P, EagerSendCompletesWithoutReceiver) {
  Fixture f(2);
  SimTime send_done = 0;
  bool recv_done = false;
  auto sender = [&]() -> sim::Task<void> {
    co_await f.world->send(0, 1, 0, 1024);  // below eager threshold
    send_done = f.engine.now();
  };
  auto receiver = [&]() -> sim::Task<void> {
    co_await f.engine.delay(1'000'000);  // receiver shows up 1 ms later
    (void)co_await f.world->recv(1, 0, 0);
    recv_done = true;
  };
  f.engine.spawn(sender());
  f.engine.spawn(receiver());
  f.engine.run();
  EXPECT_TRUE(recv_done);
  EXPECT_LT(send_done, 1'000'000)
      << "eager send must not block on the late receiver";
}

TEST(P2P, LargeSendRendezvousesWithReceiver) {
  WorldConfig cfg;
  cfg.eager_threshold = 1024;
  Fixture f(2, cfg);
  SimTime send_done = 0;
  auto sender = [&]() -> sim::Task<void> {
    co_await f.world->send(0, 1, 0, 1 << 20);  // above threshold
    send_done = f.engine.now();
  };
  auto receiver = [&]() -> sim::Task<void> {
    co_await f.engine.delay(1'000'000);
    (void)co_await f.world->recv(1, 0, 0);
  };
  f.engine.spawn(sender());
  f.engine.spawn(receiver());
  f.engine.run();
  EXPECT_GE(send_done, 1'000'000)
      << "rendezvous send completes only after the receive matches";
}

TEST(P2P, HappensBeforeEdgeLoggedForEagerToo) {
  Fixture f(2);
  auto sender = [&]() -> sim::Task<void> {
    co_await f.world->send(0, 1, 3, 64);
  };
  auto receiver = [&]() -> sim::Task<void> {
    co_await f.engine.delay(500'000);
    (void)co_await f.world->recv(1, 0, 3);
  };
  f.engine.spawn(sender());
  f.engine.spawn(receiver());
  f.engine.run();
  ASSERT_EQ(f.collector.bundle().comm.p2p.size(), 1u);
  const auto& e = f.collector.bundle().comm.p2p[0];
  EXPECT_LT(e.t_send_start, e.t_recv_end);
  EXPECT_GE(e.t_recv_start, 500'000);
}

}  // namespace
}  // namespace pfsem::mpi
