// Unit tests for happens-before reconstruction over matched communication
// events (Section 5.2 validation machinery), corrupt-log rejection, and a
// differential check of the interned clocks against the dense
// vector-clock oracle on every registered app and on seeded random logs.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "dense_happens_before.hpp"
#include "pfsem/apps/registry.hpp"
#include "pfsem/core/happens_before.hpp"
#include "pfsem/core/offset_tracker.hpp"

namespace pfsem::core {
namespace {

using trace::CollectiveEvent;
using trace::CollectiveKind;
using trace::CommLog;
using trace::P2PEvent;

CollectiveEvent collective(CollectiveKind kind, Rank root,
                           std::vector<std::array<SimTime, 2>> windows) {
  CollectiveEvent ev;
  ev.kind = kind;
  ev.root = root;
  for (std::size_t r = 0; r < windows.size(); ++r) {
    ev.arrivals.push_back(
        {static_cast<Rank>(r), windows[r][0], windows[r][1]});
  }
  return ev;
}

TEST(HappensBefore, SameRankIsProgramOrder) {
  CommLog log;
  HappensBefore hb(log, 4);
  EXPECT_TRUE(hb.ordered(2, 100, 2, 200));
  EXPECT_TRUE(hb.ordered(2, 100, 2, 100));
  EXPECT_FALSE(hb.ordered(2, 200, 2, 100));
}

TEST(HappensBefore, NoCommunicationNoOrder) {
  CommLog log;
  HappensBefore hb(log, 4);
  EXPECT_FALSE(hb.ordered(0, 100, 1, 10'000));
  EXPECT_FALSE(hb.ordered(1, 100, 0, 10'000));
}

TEST(HappensBefore, BarrierOrdersAcrossIt) {
  CommLog log;
  log.collectives.push_back(collective(
      CollectiveKind::Barrier, kNoRank, {{500, 600}, {510, 600}, {520, 605}}));
  HappensBefore hb(log, 3);
  // Before-barrier on 0 precedes after-barrier on 1.
  EXPECT_TRUE(hb.ordered(0, 100, 1, 700));
  EXPECT_TRUE(hb.ordered(2, 100, 0, 700));
  // Both on the same side of the barrier: unordered.
  EXPECT_FALSE(hb.ordered(0, 100, 1, 200));
  EXPECT_FALSE(hb.ordered(0, 700, 1, 800));
  // The op after the barrier on 0 does not precede ops before it on 1.
  EXPECT_FALSE(hb.ordered(0, 700, 1, 100));
}

TEST(HappensBefore, SendRecvOrdersOneDirection) {
  CommLog log;
  log.p2p.push_back(P2PEvent{0, 1, 0, 64, 500, 550, 520, 560});
  HappensBefore hb(log, 2);
  EXPECT_TRUE(hb.ordered(0, 100, 1, 600)) << "pre-send precedes post-recv";
  EXPECT_FALSE(hb.ordered(1, 100, 0, 600)) << "no edge receiver->sender ops";
  EXPECT_FALSE(hb.ordered(0, 520, 1, 540))
      << "op after send start is not released by that send";
}

TEST(HappensBefore, TransitiveChainThroughIntermediate) {
  // 0 -> 1 (recv by 600), then 1 -> 2 (send at 700): op on 0 before 500
  // precedes op on 2 after 800.
  CommLog log;
  log.p2p.push_back(P2PEvent{0, 1, 0, 8, 500, 550, 520, 560});
  log.p2p.push_back(P2PEvent{1, 2, 0, 8, 700, 750, 720, 760});
  HappensBefore hb(log, 3);
  EXPECT_TRUE(hb.ordered(0, 100, 2, 800));
  EXPECT_FALSE(hb.ordered(2, 100, 0, 800));
}

TEST(HappensBefore, ChainBrokenIfIntermediateSendsFirst) {
  // 1 sends to 2 *before* receiving from 0: no transitivity.
  CommLog log;
  log.p2p.push_back(P2PEvent{1, 2, 0, 8, 100, 150, 120, 160});
  log.p2p.push_back(P2PEvent{0, 1, 0, 8, 500, 550, 520, 560});
  HappensBefore hb(log, 3);
  EXPECT_FALSE(hb.ordered(0, 50, 2, 800));
}

TEST(HappensBefore, BcastOrdersRootToLeaves) {
  CommLog log;
  log.collectives.push_back(collective(CollectiveKind::Bcast, 0,
                                       {{500, 600}, {510, 620}, {490, 610}}));
  HappensBefore hb(log, 3);
  EXPECT_TRUE(hb.ordered(0, 100, 1, 700));
  EXPECT_TRUE(hb.ordered(0, 100, 2, 700));
  EXPECT_FALSE(hb.ordered(1, 100, 0, 700)) << "no leaf->root edge in bcast";
  EXPECT_FALSE(hb.ordered(1, 100, 2, 700)) << "no leaf->leaf edge in bcast";
}

TEST(HappensBefore, GatherOrdersLeavesToRoot) {
  CommLog log;
  log.collectives.push_back(collective(CollectiveKind::Gather, 0,
                                       {{500, 600}, {510, 620}, {490, 610}}));
  HappensBefore hb(log, 3);
  EXPECT_TRUE(hb.ordered(1, 100, 0, 700));
  EXPECT_TRUE(hb.ordered(2, 100, 0, 700));
  EXPECT_FALSE(hb.ordered(0, 100, 1, 700)) << "no root->leaf edge in gather";
}

TEST(HappensBefore, AllreduceOrdersEveryoneBothWays) {
  CommLog log;
  log.collectives.push_back(collective(CollectiveKind::Allreduce, kNoRank,
                                       {{500, 600}, {510, 620}, {490, 610}}));
  HappensBefore hb(log, 3);
  for (Rank a = 0; a < 3; ++a) {
    for (Rank b = 0; b < 3; ++b) {
      if (a == b) continue;
      EXPECT_TRUE(hb.ordered(a, 100, b, 700)) << a << "->" << b;
    }
  }
}

TEST(HappensBefore, SuccessiveBarriersAccumulate) {
  CommLog log;
  log.collectives.push_back(
      collective(CollectiveKind::Barrier, kNoRank, {{100, 150}, {110, 150}}));
  log.collectives.push_back(
      collective(CollectiveKind::Barrier, kNoRank, {{300, 350}, {310, 350}}));
  HappensBefore hb(log, 2);
  EXPECT_TRUE(hb.ordered(0, 50, 1, 200));
  EXPECT_TRUE(hb.ordered(0, 200, 1, 400)) << "second barrier orders the gap";
  EXPECT_FALSE(hb.ordered(0, 400, 1, 200));
}

TEST(RaceCheckIntegration, SynchronizedAndRacyCounted) {
  // Conflict pair ordered by a barrier vs pair with no synchronization.
  CommLog log;
  log.collectives.push_back(
      collective(CollectiveKind::Barrier, kNoRank, {{500, 550}, {505, 550}}));
  HappensBefore hb(log, 2);

  ConflictReport report;
  Conflict synced;
  synced.first.rank = 0;
  synced.first.t = 100;
  synced.second.rank = 1;
  synced.second.t = 600;
  report.conflicts.push_back(synced);
  Conflict racy;
  racy.first.rank = 0;
  racy.first.t = 600;   // after the barrier on 0
  racy.second.rank = 1;
  racy.second.t = 700;  // no sync between those two ops
  report.conflicts.push_back(racy);

  const auto rc = validate_synchronization(report, hb);
  EXPECT_EQ(rc.checked, 2u);
  EXPECT_EQ(rc.synchronized, 1u);
  EXPECT_EQ(rc.racy, 1u);
}

// --- corrupt comm logs -------------------------------------------------

/// Constructing HappensBefore over `log` must throw a located pfsem::Error
/// whose message contains `needle`.
void expect_rejected(const CommLog& log, int nranks, const std::string& needle) {
  try {
    HappensBefore hb(log, nranks);
    ADD_FAILURE() << "corrupt log accepted; expected error naming " << needle;
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos) << what;
    EXPECT_NE(what.find("happens_before.cpp:"), std::string::npos) << what;
  }
}

CommLog two_barriers() {
  CommLog log;
  log.collectives.push_back(
      collective(CollectiveKind::Barrier, kNoRank, {{100, 150}, {110, 150}}));
  log.collectives.push_back(
      collective(CollectiveKind::Barrier, kNoRank, {{300, 350}, {310, 350}}));
  return log;
}

TEST(HappensBeforeCorrupt, ArrivalRankOutOfRange) {
  auto log = two_barriers();
  log.collectives[1].arrivals[1].rank = 7;
  expect_rejected(log, 2, "collective 1: arrival rank 7 out of range [0, 2)");
  log.collectives[1].arrivals[1].rank = -3;
  expect_rejected(log, 2, "collective 1: arrival rank -3");
}

TEST(HappensBeforeCorrupt, RootOutOfRangeOnRootedKind) {
  for (auto kind : {CollectiveKind::Bcast, CollectiveKind::Scatter,
                    CollectiveKind::Reduce, CollectiveKind::Gather}) {
    auto log = two_barriers();
    log.collectives[1].kind = kind;
    log.collectives[1].root = 5;
    expect_rejected(log, 2,
                    std::string("collective 1: ") + trace::to_string(kind) +
                        " root 5 out of range");
    log.collectives[1].root = kNoRank;
    expect_rejected(log, 2, "root -1 out of range");
  }
  // Rootless kinds carry no root; kNoRank there is the normal encoding.
  auto log = two_barriers();
  log.collectives[1].kind = CollectiveKind::Allreduce;
  EXPECT_NO_THROW(HappensBefore(log, 2));
}

TEST(HappensBeforeCorrupt, BadKind) {
  auto log = two_barriers();
  log.collectives[0].kind = static_cast<CollectiveKind>(42);
  expect_rejected(log, 2, "collective 0: bad kind 42");
}

TEST(HappensBeforeCorrupt, RankArrivesTwice) {
  auto log = two_barriers();
  log.collectives[1].arrivals[1].rank = 0;
  expect_rejected(log, 2, "collective 1: rank 0 arrives twice");
}

TEST(HappensBeforeCorrupt, P2PRankOutOfRange) {
  CommLog log;
  log.p2p.push_back(P2PEvent{0, 1, 0, 8, 500, 550, 520, 560});
  log.p2p.push_back(P2PEvent{0, 9, 0, 8, 600, 650, 620, 660});
  expect_rejected(log, 2, "p2p event 1: rank 9 out of range [0, 2)");
}

// --- interned rows vs the dense oracle ---------------------------------

/// Every time a query can hit a node boundary at, plus one either side.
std::vector<SimTime> probe_times(const CommLog& log) {
  std::vector<SimTime> ts{0};
  const auto add = [&](SimTime t) {
    ts.insert(ts.end(), {t - 1, t, t + 1});
  };
  for (const auto& p : log.p2p) {
    for (SimTime t : {p.t_send_start, p.t_send_end, p.t_recv_start,
                      p.t_recv_end}) {
      add(t);
    }
  }
  for (const auto& c : log.collectives) {
    for (const auto& a : c.arrivals) {
      add(a.t_enter);
      add(a.t_exit);
    }
  }
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  return ts;
}

/// Compare ordered() on `queries` seeded random (rank, time) pairs;
/// returns the number of ordered answers so callers can check the
/// queries are not vacuous.
std::size_t expect_same_order(const HappensBefore& hb,
                              const testing::DenseHappensBefore& dense,
                              const CommLog& log, int nranks,
                              std::size_t queries, std::uint64_t seed) {
  const auto ts = probe_times(log);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Rank> rank(0, nranks - 1);
  std::uniform_int_distribution<std::size_t> time(0, ts.size() - 1);
  std::size_t yes = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    const Rank r1 = rank(rng);
    const Rank r2 = rank(rng);
    const SimTime t1 = ts[time(rng)];
    const SimTime t2 = ts[time(rng)];
    const bool want = dense.ordered(r1, t1, r2, t2);
    EXPECT_EQ(hb.ordered(r1, t1, r2, t2), want)
        << "(" << r1 << "," << t1 << ") -> (" << r2 << "," << t2 << ")";
    if (want) ++yes;
    if (::testing::Test::HasFailure()) break;
  }
  return yes;
}

TEST(HappensBeforeOracle, EveryRegisteredAppAt64Ranks) {
  for (const auto& info : apps::registry()) {
    SCOPED_TRACE(info.name);
    apps::AppConfig cfg;
    cfg.nranks = 64;
    cfg.bytes_per_rank = 64 * 1024;
    const auto bundle = apps::run_app(info, cfg);
    const HappensBefore hb(bundle.comm, bundle.nranks);
    const testing::DenseHappensBefore dense(bundle.comm, bundle.nranks);

    // Exact memory gate: one row per communication event at most.
    EXPECT_LE(hb.clock_count(),
              1 + bundle.comm.collectives.size() + bundle.comm.p2p.size());

    const auto report =
        detect_conflicts(reconstruct_accesses(bundle));
    for (const auto& c : report.conflicts) {
      ASSERT_EQ(hb.ordered(c.first.rank, c.first.t, c.second.rank,
                           c.second.t),
                dense.ordered(c.first.rank, c.first.t, c.second.rank,
                              c.second.t));
    }
    expect_same_order(hb, dense, bundle.comm, bundle.nranks, 4000, 42);
    if (HasFailure()) return;
  }
}

/// A random log over `nranks`: sub-group collectives of all eight kinds
/// and p2p messages, with overlapping windows so events interleave.
CommLog random_log(std::mt19937_64& rng, int nranks) {
  CommLog log;
  std::uniform_int_distribution<int> coin(0, 99);
  std::uniform_int_distribution<SimTime> jitter(0, 30);
  std::uniform_int_distribution<Rank> rank(0, nranks - 1);
  std::uniform_int_distribution<int> kind(0, 7);
  const int nevents = 4 + coin(rng) % 40;
  SimTime now = 0;
  for (int e = 0; e < nevents; ++e) {
    now += jitter(rng);
    if (coin(rng) < 35) {
      P2PEvent p;
      p.src = rank(rng);
      p.dst = rank(rng);
      if (p.dst == p.src && coin(rng) < 90) p.dst = (p.src + 1) % nranks;
      p.t_send_start = now + jitter(rng);
      p.t_send_end = p.t_send_start + jitter(rng);
      p.t_recv_start = now + jitter(rng);
      p.t_recv_end = std::max(p.t_recv_start, p.t_send_start) + jitter(rng);
      log.p2p.push_back(p);
      continue;
    }
    CollectiveEvent c;
    c.kind = static_cast<CollectiveKind>(kind(rng));
    // Whole world half the time, else a random sub-group (maybe size 1).
    std::vector<Rank> group;
    const bool world = coin(rng) < 50;
    for (Rank r = 0; r < nranks; ++r) {
      if (world || coin(rng) < 50) group.push_back(r);
    }
    if (group.empty()) group.push_back(rank(rng));
    std::shuffle(group.begin(), group.end(), rng);
    const bool rooted = c.kind == CollectiveKind::Bcast ||
                        c.kind == CollectiveKind::Scatter ||
                        c.kind == CollectiveKind::Reduce ||
                        c.kind == CollectiveKind::Gather;
    c.root = rooted ? group[static_cast<std::size_t>(coin(rng)) %
                            group.size()]
                    : kNoRank;
    const SimTime exit = now + 10 + jitter(rng);
    for (Rank r : group) {
      const SimTime enter = now + jitter(rng) / 3;
      c.arrivals.push_back({r, enter, coin(rng) < 50 ? exit
                                                     : exit + jitter(rng)});
    }
    log.collectives.push_back(std::move(c));
  }
  return log;
}

TEST(HappensBeforeOracle, SeededRandomLogs) {
  std::size_t ordered_answers = 0;
  std::size_t queries = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    std::mt19937_64 rng(seed);
    const int nranks = 2 + static_cast<int>(seed % 11);
    const auto log = random_log(rng, nranks);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const HappensBefore hb(log, nranks);
    const testing::DenseHappensBefore dense(log, nranks);
    ordered_answers +=
        expect_same_order(hb, dense, log, nranks, 3000, seed * 7919);
    queries += 3000;
    if (HasFailure()) return;
  }
  // Neither answer dominates, so agreement is not vacuous.
  EXPECT_GT(ordered_answers, queries / 10);
  EXPECT_LT(ordered_answers, queries * 9 / 10);
}

TEST(HappensBeforeOracle, SharedRowsStayWithinOnePerEvent) {
  // After a world barrier every rank shares one row, so a bcast, a
  // reduce and a message each add exactly one row.
  CommLog log;
  log.collectives.push_back(collective(CollectiveKind::Barrier, kNoRank,
                                       {{10, 20}, {10, 20}, {10, 20}}));
  log.collectives.push_back(collective(CollectiveKind::Bcast, 1,
                                       {{30, 40}, {30, 40}, {30, 40}}));
  log.collectives.push_back(collective(CollectiveKind::Reduce, 2,
                                       {{50, 60}, {50, 60}, {50, 60}}));
  log.p2p.push_back(P2PEvent{2, 0, 0, 8, 70, 75, 72, 80});
  HappensBefore hb(log, 3);
  EXPECT_EQ(hb.clock_count(), 5u);
  EXPECT_TRUE(hb.ordered(1, 25, 0, 45)) << "bcast root -> leaf";
  EXPECT_TRUE(hb.ordered(0, 45, 2, 65)) << "reduce leaf -> root";
  EXPECT_TRUE(hb.ordered(1, 45, 0, 85)) << "reduce leaf -> root -> message";
  EXPECT_FALSE(hb.ordered(0, 45, 1, 85)) << "reduce leaves learn nothing";
}

}  // namespace
}  // namespace pfsem::core
