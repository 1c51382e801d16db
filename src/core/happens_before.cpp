#include "pfsem/core/happens_before.hpp"

#include <algorithm>
#include <string>

#include "pfsem/exec/pool.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::core {

namespace {

/// Merge key: the global position of an event is approximated by its
/// latest participant exit; the simulator emits events in completion
/// order, so this reconstructs a causally consistent processing order
/// (clock skew is orders of magnitude below event spacing, Section 5.2).
struct MergedEvent {
  SimTime completion;
  bool is_p2p;
  std::size_t index;
};

/// Reject a corrupt log before any rank indexes a table. Every path
/// (materialized, compact file, streaming trailer) builds HappensBefore
/// from its CommLog, so this is the one place the ranks get checked.
void validate(const trace::CommLog& comm, int nranks) {
  // Messages are built only on failure: a valid log allocates nothing.
  const auto bad_rank = [nranks](Rank r) { return r < 0 || r >= nranks; };
  const auto range = [nranks] {
    return " out of range [0, " + std::to_string(nranks) + ")";
  };
  for (std::size_t i = 0; i < comm.p2p.size(); ++i) {
    const auto& p = comm.p2p[i];
    if (bad_rank(p.src) || bad_rank(p.dst)) {
      fail("p2p event " + std::to_string(i) + ": rank " +
           std::to_string(bad_rank(p.src) ? p.src : p.dst) + range());
    }
  }
  using K = trace::CollectiveKind;
  // Arrival stamps, offset by one so the zero fill matches no collective.
  std::vector<std::size_t> seen(static_cast<std::size_t>(nranks), 0);
  for (std::size_t i = 0; i < comm.collectives.size(); ++i) {
    const auto& c = comm.collectives[i];
    const auto where = [i] { return "collective " + std::to_string(i) + ": "; };
    if (c.kind > K::Alltoall) {
      fail(where() + "bad kind " + std::to_string(static_cast<int>(c.kind)));
    }
    const bool rooted = c.kind == K::Bcast || c.kind == K::Scatter ||
                        c.kind == K::Reduce || c.kind == K::Gather;
    if (rooted && bad_rank(c.root)) {
      fail(where() + trace::to_string(c.kind) + " root " +
           std::to_string(c.root) + range());
    }
    for (const auto& a : c.arrivals) {
      if (bad_rank(a.rank)) {
        fail(where() + "arrival rank " + std::to_string(a.rank) + range());
      }
      auto& s = seen[static_cast<std::size_t>(a.rank)];
      if (s == i + 1) {
        fail(where() + "rank " + std::to_string(a.rank) + " arrives twice");
      }
      s = i + 1;
    }
  }
}

}  // namespace

HappensBefore::HappensBefore(const trace::CommLog& comm, int nranks)
    : nranks_(nranks) {
  require(nranks >= 0, "HappensBefore: negative rank count");
  validate(comm, nranks);
  const auto n = static_cast<std::size_t>(nranks);
  timeline_.resize(n);
  const auto idx = [](Rank r) { return static_cast<std::size_t>(r); };

  std::vector<MergedEvent> events;
  events.reserve(comm.p2p.size() + comm.collectives.size());
  std::vector<std::size_t> nodes(n, 0);
  for (std::size_t i = 0; i < comm.p2p.size(); ++i) {
    events.push_back({comm.p2p[i].t_recv_end, true, i});
    ++nodes[idx(comm.p2p[i].src)];
    ++nodes[idx(comm.p2p[i].dst)];
  }
  for (std::size_t i = 0; i < comm.collectives.size(); ++i) {
    SimTime done = 0;
    for (const auto& a : comm.collectives[i].arrivals) {
      done = std::max(done, a.t_exit);
      ++nodes[idx(a.rank)];
    }
    events.push_back({done, false, i});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const MergedEvent& a, const MergedEvent& b) {
                     return a.completion < b.completion;
                   });
  for (std::size_t r = 0; r < n; ++r) timeline_[r].reserve(nodes[r]);

  // A rank's clock is rows_[base[r]] with entry r replaced by seq[r].
  // Rows are immutable once built; a rank moves to a new row only when
  // another rank's knowledge reaches it.
  std::vector<ClockId> base(n, 0);
  std::vector<std::uint32_t> seq(n, 0);
  // Per-row merge stamps: a row already folded into the row under
  // construction (stamp == epoch) is skipped; remap carries a Bcast
  // leaf row's replacement.
  std::vector<std::size_t> stamp;
  std::vector<ClockId> remap;
  std::size_t epoch = 0;
  rows_.reserve((1 + comm.collectives.size() + comm.p2p.size()) * n);

  const auto new_row = [&]() -> ClockId {
    rows_.resize(rows_.size() + n, 0);
    stamp.push_back(0);
    remap.push_back(0);
    return static_cast<ClockId>(clock_count_++);
  };
  const auto fold_row = [&](ClockId into, ClockId from) {
    std::uint32_t* d = rows_.data() + into * n;
    const std::uint32_t* s = rows_.data() + from * n;
    for (std::size_t k = 0; k < n; ++k) d[k] = std::max(d[k], s[k]);
  };
  const auto fold_seq = [&](ClockId into, Rank r) {
    auto& e = rows_[into * n + idx(r)];
    e = std::max(e, seq[idx(r)]);
  };
  // Join rank r's clock into `into`: its row once per epoch, then its
  // own seq.
  const auto fold_rank = [&](ClockId into, Rank r) {
    const ClockId b = base[idx(r)];
    if (stamp[b] != epoch) {
      stamp[b] = epoch;
      fold_row(into, b);
    }
    fold_seq(into, r);
  };
  const auto push_node = [&](Rank r, SimTime t_enter, SimTime t_exit) {
    timeline_[idx(r)].push_back(
        Node{t_enter, t_exit, ++seq[idx(r)], base[idx(r)]});
  };

  new_row();  // row 0: no knowledge yet
  for (const auto& ev : events) {
    ++epoch;
    if (ev.is_p2p) {
      const auto& p = comm.p2p[ev.index];
      push_node(p.src, p.t_send_start, p.t_send_end);
      const ClockId m = new_row();
      fold_rank(m, p.dst);
      fold_rank(m, p.src);
      base[idx(p.dst)] = m;
      push_node(p.dst, p.t_recv_start, p.t_recv_end);
      continue;
    }
    const auto& c = comm.collectives[ev.index];
    using K = trace::CollectiveKind;
    const bool root_releases = c.kind == K::Bcast || c.kind == K::Scatter;
    const bool root_acquires = c.kind == K::Reduce || c.kind == K::Gather;
    // The participation node of a releasing rank must itself be visible
    // to acquirers (its seq is what ordered() compares against), so
    // releasers' nodes are pushed before acquirers join.
    if (root_releases) {
      for (const auto& a : c.arrivals) {
        if (a.rank == c.root) push_node(a.rank, a.t_enter, a.t_exit);
      }
      // Leaves that shared a row before still share one after: each
      // distinct leaf row is joined with the root's clock once.
      const ClockId root_row = base[idx(c.root)];
      for (const auto& a : c.arrivals) {
        if (a.rank == c.root) continue;
        const ClockId b = base[idx(a.rank)];
        if (stamp[b] != epoch) {
          stamp[b] = epoch;
          const ClockId m = new_row();
          fold_row(m, b);
          fold_row(m, root_row);
          fold_seq(m, c.root);
          remap[b] = m;
        }
        base[idx(a.rank)] = remap[b];
        push_node(a.rank, a.t_enter, a.t_exit);
      }
    } else if (root_acquires) {
      for (const auto& a : c.arrivals) {
        if (a.rank != c.root) push_node(a.rank, a.t_enter, a.t_exit);
      }
      const ClockId m = new_row();
      fold_rank(m, c.root);
      for (const auto& a : c.arrivals) fold_rank(m, a.rank);
      base[idx(c.root)] = m;
      for (const auto& a : c.arrivals) {
        if (a.rank == c.root) push_node(a.rank, a.t_enter, a.t_exit);
      }
    } else {
      // Rootless: everyone releases and acquires. Every participant takes
      // its event seq first, then all share one merged row.
      for (const auto& a : c.arrivals) ++seq[idx(a.rank)];
      const ClockId m = new_row();
      for (const auto& a : c.arrivals) fold_rank(m, a.rank);
      for (const auto& a : c.arrivals) {
        base[idx(a.rank)] = m;
        timeline_[idx(a.rank)].push_back(
            Node{a.t_enter, a.t_exit, seq[idx(a.rank)], m});
      }
    }
  }
}

bool HappensBefore::ordered(Rank r1, SimTime t1, Rank r2, SimTime t2) const {
  if (r1 == r2) return t1 <= t2;
  require(r1 >= 0 && r1 < nranks_ && r2 >= 0 && r2 < nranks_,
          "ordered(): rank out of range");
  const auto& tl1 = timeline_[static_cast<std::size_t>(r1)];
  const auto& tl2 = timeline_[static_cast<std::size_t>(r2)];
  // First release on r1 entering at/after t1.
  auto rel = std::lower_bound(
      tl1.begin(), tl1.end(), t1,
      [](const Node& n, SimTime t) { return n.t_enter < t; });
  if (rel == tl1.end()) return false;
  // Last acquire on r2 exiting at/before t2.
  auto acq = std::upper_bound(
      tl2.begin(), tl2.end(), t2,
      [](SimTime t, const Node& n) { return t < n.t_exit; });
  if (acq == tl2.begin()) return false;
  --acq;
  // r1 != r2, so the row's entry for r1 is exact for this node.
  return rows_[static_cast<std::size_t>(acq->clock) *
                   static_cast<std::size_t>(nranks_) +
               static_cast<std::size_t>(r1)] >= rel->seq;
}

RaceCheck validate_synchronization(const ConflictReport& report,
                                   const HappensBefore& hb, int threads) {
  const auto& conflicts = report.conflicts;
  const int nthreads = exec::resolve_threads(threads);
  const std::size_t chunks =
      std::min<std::size_t>(conflicts.size(),
                            static_cast<std::size_t>(nthreads) * 4);
  RaceCheck rc;
  if (chunks == 0) return rc;
  std::vector<RaceCheck> parts(chunks);
  exec::parallel_for(nthreads, chunks, [&](std::size_t ch) {
    const std::size_t lo = conflicts.size() * ch / chunks;
    const std::size_t hi = conflicts.size() * (ch + 1) / chunks;
    for (std::size_t i = lo; i < hi; ++i) {
      const auto& c = conflicts[i];
      ++parts[ch].checked;
      if (hb.ordered(c.first.rank, c.first.t, c.second.rank, c.second.t)) {
        ++parts[ch].synchronized;
      } else {
        ++parts[ch].racy;
      }
    }
  });
  for (const auto& p : parts) {
    rc.checked += p.checked;
    rc.synchronized += p.synchronized;
    rc.racy += p.racy;
  }
  return rc;
}

}  // namespace pfsem::core
