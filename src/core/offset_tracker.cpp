#include "pfsem/core/offset_tracker.hpp"

#include <algorithm>

#include "offset_stepper.hpp"

namespace pfsem::core {

namespace detail {

void fold_events(FileLog& fl) {
  using Kind = SyncEvent::Kind;
  std::sort(fl.events.begin(), fl.events.end(),
            [](const SyncEvent& a, const SyncEvent& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.rank != b.rank) return a.rank < b.rank;
              return a.t < b.t;
            });
  // Within a (kind, rank) run, each rank's table entry is found once;
  // a close lands in both the close and the commit table (paper
  // footnote 2).
  std::vector<SimTime>* times = nullptr;
  std::vector<SimTime>* also = nullptr;
  for (std::size_t i = 0; i < fl.events.size(); ++i) {
    const SyncEvent& e = fl.events[i];
    if (i == 0 || e.kind != fl.events[i - 1].kind ||
        e.rank != fl.events[i - 1].rank) {
      auto& table = e.kind == Kind::Open     ? fl.opens
                    : e.kind == Kind::Commit ? fl.commits
                                             : fl.closes;
      times = &table.try_emplace(e.rank).first->second;
      also = e.kind == Kind::Close
                 ? &fl.commits.try_emplace(e.rank).first->second
                 : nullptr;
    }
    times->push_back(e.t);
    if (also != nullptr) also->push_back(e.t);
  }
  fl.events.clear();
}

void annotate_file(FileLog& fl) {
  fold_events(fl);
  fl.events.shrink_to_fit();
  for (auto& [rank, v] : fl.opens) std::sort(v.begin(), v.end());
  for (auto& [rank, v] : fl.closes) std::sort(v.begin(), v.end());
  for (auto& [rank, v] : fl.commits) std::sort(v.begin(), v.end());
  std::stable_sort(fl.accesses.begin(), fl.accesses.end(),
                   [](const Access& a, const Access& b) { return a.t < b.t; });
  if (fl.accesses.empty()) return;
  // Group the (time-ordered) accesses by rank with one counting sort, so
  // each rank's accesses form a time-ordered run; each table entry then
  // resolves its rank's whole run with one forward merge.
  Rank lo = fl.accesses.front().rank;
  Rank hi = lo;
  for (const auto& a : fl.accesses) {
    lo = std::min(lo, a.rank);
    hi = std::max(hi, a.rank);
  }
  const auto span = static_cast<std::size_t>(
      static_cast<std::int64_t>(hi) - static_cast<std::int64_t>(lo) + 1);
  std::vector<std::size_t> start(span + 1, 0);
  for (const auto& a : fl.accesses) {
    ++start[static_cast<std::size_t>(a.rank - lo) + 1];
  }
  for (std::size_t i = 1; i <= span; ++i) start[i] += start[i - 1];
  std::vector<Access*> by_rank(fl.accesses.size());
  {
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (auto& a : fl.accesses) {
      by_rank[next[static_cast<std::size_t>(a.rank - lo)]++] = &a;
    }
  }
  // Accesses of ranks with no commit/close on record keep kTimeNever;
  // ranks with no open keep their t_open.
  for (auto& a : fl.accesses) {
    a.t_commit = kTimeNever;
    a.t_close = kTimeNever;
  }
  // Visit each table entry's run of accesses (ascending t).
  auto for_run = [&](const std::map<Rank, std::vector<SimTime>>& table,
                     auto&& resolve) {
    for (auto it = table.lower_bound(lo); it != table.end() && it->first <= hi;
         ++it) {
      const auto b = static_cast<std::size_t>(it->first - lo);
      std::size_t k = 0;  // events at or before the current access
      const auto& ts = it->second;
      for (std::size_t i = start[b]; i < start[b + 1]; ++i) {
        Access& a = *by_rank[i];
        while (k < ts.size() && ts[k] <= a.t) ++k;
        resolve(a, ts, k);
      }
    }
  };
  for_run(fl.opens, [](Access& a, const std::vector<SimTime>& ts,
                       std::size_t k) { a.t_open = k == 0 ? 0 : ts[k - 1]; });
  for_run(fl.commits, [](Access& a, const std::vector<SimTime>& ts,
                         std::size_t k) {
    a.t_commit = k == ts.size() ? kTimeNever : ts[k];
  });
  for_run(fl.closes, [](Access& a, const std::vector<SimTime>& ts,
                        std::size_t k) {
    a.t_close = k == ts.size() ? kTimeNever : ts[k];
  });
}

void annotate_accesses(AccessLog& log) {
  for (auto& fl : log.files) annotate_file(fl);
}

}  // namespace detail

AccessLog reconstruct_accesses(const trace::TraceBundle& bundle,
                               OffsetTrackerOptions opts) {
  // Sort POSIX records by (local) timestamp, the order the paper uses.
  std::vector<std::size_t> order;
  order.reserve(bundle.records.size());
  for (std::size_t i = 0; i < bundle.records.size(); ++i) {
    if (bundle.records[i].layer == trace::Layer::Posix) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return bundle.records[a].tstart < bundle.records[b].tstart;
  });

  AccessLog log;
  log.nranks = bundle.nranks;
  // Adopt the bundle's intern table: record FileIds are store FileIds.
  log.paths = bundle.paths;
  log.files.resize(log.paths.size());
  // Column hints from the fast capture path: pre-size each file's access
  // column so the grouping below appends without regrowth. The hints
  // count every record touching the file (opens/commits included), so
  // they are a slight overestimate of the data-op count — fine for
  // reserve.
  if (!bundle.file_op_counts.empty()) {
    const std::size_t n =
        std::min(bundle.file_op_counts.size(), log.files.size());
    for (std::size_t id = 0; id < n; ++id) {
      if (bundle.file_op_counts[id] > 0) {
        log.files[id].accesses.reserve(bundle.file_op_counts[id]);
      }
    }
  }

  detail::OffsetStepper stepper(log, opts);
  for (std::size_t index : order) stepper.step(bundle.records[index], index);
  detail::annotate_accesses(log);
  return log;
}

}  // namespace pfsem::core
