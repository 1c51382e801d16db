// Differential test for the per-writer commit index and the per-rank lock
// lists of the simulated PFS backends. close and fsync touch only the
// caller's pending writes and held lock blocks; the oracle below keeps
// the whole-history form instead — every file keeps its full, uncompacted
// write list, a commit point walks all of it, and a close releases the
// rank from every block of the lock table. Seeded random op sequences
// (opens with and without O_TRUNC, writes, reads, fsync, close,
// ftruncate, laminate, unlink, rank crashes, and on the cluster metadata
// server crashes that lose a close's commit) run against a backend and
// the oracle in lockstep; every read, every strong view, every crash's
// lost version tags and the lock traffic must agree, under all four
// consistency models, with compaction on, on Pfs and PfsCluster.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "pfsem/fault/plan.hpp"
#include "pfsem/trace/record.hpp"
#include "pfsem/util/rng.hpp"
#include "pfsem/vfs/cluster.hpp"
#include "pfsem/vfs/file_core.hpp"
#include "pfsem/vfs/pfs.hpp"

namespace pfsem::vfs {
namespace {

using detail::FileCore;
using detail::ResolveEnv;
using detail::WriteRecord;

constexpr ConsistencyModel kModels[] = {
    ConsistencyModel::Strong, ConsistencyModel::Commit,
    ConsistencyModel::Session, ConsistencyModel::Eventual};

std::string extents_str(const std::vector<ReadExtent>& v) {
  std::ostringstream os;
  for (const auto& e : v) {
    os << '[' << e.ext.begin << ',' << e.ext.end << ")v" << e.version << 'w'
       << e.writer << ' ';
  }
  return os.str();
}

/// Whole-history reference: the commit, publish, crash and lock rules
/// written as scans over every write and every lock block.
class HistoryOracle {
 public:
  explicit HistoryOracle(const PfsConfig& cfg)
      : cfg_(cfg), env_{cfg.model, cfg.eventual_propagation, nullptr} {}

  struct Block {
    bool exclusive = false;
    std::set<Rank> holders;
  };
  /// A file: its uncompacted history and its whole lock table.
  struct File : FileCore {
    std::map<Offset, Block> locks;
  };
  struct Handle {
    std::shared_ptr<File> file;
    SimTime t_open = 0;
  };

  /// Mirror a successful open that the backend numbered `fd`.
  void open(Rank r, int fd, const std::string& path, int flags,
            SimTime now) {
    auto& f = files_[path];
    if (!f) {
      f = std::make_shared<File>();
      f->path = path;
    }
    if (flags & trace::kTrunc) {
      f->writes.clear();
      f->rebuild_index();
      f->size = 0;
    }
    fds_[{r, fd}] = {f, now};
  }

  void pwrite(Rank r, int fd, Offset off, std::uint64_t count, SimTime now) {
    File& f = *fds_.at({r, fd}).file;
    WriteRecord w;
    w.id = next_version_++;
    w.writer = r;
    w.ext = {off, off + count};
    w.t_write = now;
    if (cfg_.model == ConsistencyModel::Strong) {
      w.t_commit = now;
      w.t_publish = now;
    }
    f.writes.push_back(w);
    f.rebuild_index();
    f.size = std::max(f.size, w.ext.end);
    charge(f, r, w.ext, /*exclusive=*/true);
  }

  [[nodiscard]] std::vector<ReadExtent> pread(Rank r, int fd, Offset off,
                                              std::uint64_t count,
                                              SimTime now) {
    const Handle& h = fds_.at({r, fd});
    const FileCore& f = *h.file;
    const std::uint64_t bytes =
        off >= f.size ? 0 : std::min<std::uint64_t>(count, f.size - off);
    charge(*h.file, r, {off, off + bytes}, /*exclusive=*/false);
    if (bytes == 0) return {};
    return detail::resolve_view(f, env_, r, now, h.t_open, off, bytes);
  }

  void fsync(Rank r, int fd, SimTime now) {
    for (auto& w : fds_.at({r, fd}).file->writes) {
      if (w.writer == r && w.t_commit == kTimeNever) w.t_commit = now;
    }
  }

  /// `committed` = false mirrors a close whose metadata update was lost.
  void close(Rank r, int fd, SimTime now, bool committed) {
    const auto f = fds_.at({r, fd}).file;
    if (committed) {
      for (auto& w : f->writes) {
        if (w.writer != r) continue;
        if (w.t_commit == kTimeNever) w.t_commit = now;
        if (w.t_publish == kTimeNever) w.t_publish = now;
      }
    }
    if (cfg_.model == ConsistencyModel::Strong) {
      for (auto& [b, blk] : f->locks) blk.holders.erase(r);
    }
    fds_.erase({r, fd});
  }

  void ftruncate(Rank r, int fd, Offset length) {
    FileCore& f = *fds_.at({r, fd}).file;
    if (length < f.size) {
      std::erase_if(f.writes,
                    [&](const WriteRecord& w) { return w.ext.begin >= length; });
      for (auto& w : f.writes) w.ext.end = std::min(w.ext.end, length);
      f.rebuild_index();
    }
    f.size = length;
  }

  void laminate(const std::string& path, SimTime now) {
    FileCore& f = *files_.at(path);
    for (auto& w : f.writes) {
      if (w.t_commit == kTimeNever) w.t_commit = now;
      if (w.t_publish == kTimeNever) w.t_publish = now;
    }
    f.laminated = true;
  }

  void unlink(const std::string& path) { files_.erase(path); }

  [[nodiscard]] std::vector<VersionTag> crash(Rank r, SimTime now) {
    std::vector<VersionTag> lost;
    for (auto& [path, f] : files_) {
      for (auto& [b, blk] : f->locks) blk.holders.erase(r);
      if (f->laminated) continue;
      const std::size_t before = f->writes.size();
      std::erase_if(f->writes, [&](const WriteRecord& w) {
        if (w.writer != r || detail::write_durable(w, env_, now)) return false;
        lost.push_back(w.id);
        return true;
      });
      if (f->writes.size() != before) {
        f->rebuild_index();
        Offset size = 0;
        for (const auto& w : f->writes) size = std::max(size, w.ext.end);
        f->size = size;
      }
    }
    std::erase_if(fds_, [&](const auto& kv) { return kv.first.first == r; });
    std::sort(lost.begin(), lost.end());
    return lost;
  }

  [[nodiscard]] const FileCore* file(const std::string& path) const {
    const auto it = files_.find(path);
    return it == files_.end() ? nullptr : it->second.get();
  }
  [[nodiscard]] bool laminated_fd(Rank r, int fd) const {
    return fds_.at({r, fd}).file->laminated;
  }
  [[nodiscard]] const LockStats& lock_stats() const { return stats_; }

 private:
  /// The lock rules of the strong model, over a std::set per block.
  void charge(File& f, Rank r, Extent ext, bool exclusive) {
    if (cfg_.model != ConsistencyModel::Strong || ext.empty()) return;
    auto& table = f.locks;
    for (Offset b = ext.begin / cfg_.lock_block;
         b <= (ext.end - 1) / cfg_.lock_block; ++b) {
      Block& blk = table[b];
      const bool mine = blk.holders.contains(r);
      const bool ok = exclusive ? (blk.exclusive && blk.holders.size() == 1 &&
                                   mine)
                                : mine;
      if (ok) continue;
      ++stats_.requests;
      if (exclusive) {
        stats_.revocations += blk.holders.size() - (mine ? 1 : 0);
        blk.holders = {r};
        blk.exclusive = true;
      } else {
        if (blk.exclusive && !mine) stats_.revocations += blk.holders.size();
        if (blk.exclusive) blk.holders.clear();
        blk.exclusive = false;
        blk.holders.insert(r);
      }
    }
  }

  PfsConfig cfg_;
  ResolveEnv env_;
  std::map<std::string, std::shared_ptr<File>> files_;
  std::map<std::pair<Rank, int>, Handle> fds_;
  VersionTag next_version_ = 1;
  LockStats stats_;
};

constexpr int kRanks = 4;
const std::vector<std::string> kPaths = {"a", "b", "c"};

PfsConfig script_cfg(ConsistencyModel m) {
  PfsConfig cfg;
  cfg.model = m;
  cfg.eventual_propagation = 40;  // a few ops' worth of clock
  cfg.lock_block = 4096;
  return cfg;
}

/// Drive `fs` and the oracle with one seeded op sequence; `mds_crash`
/// (cluster only) takes down metadata shards so closes lose commits.
template <class Fs>
void replay(Fs& fs, const PfsConfig& cfg, std::uint64_t seed,
            void (*mds_crash)(Fs&, SimTime, bool) = nullptr) {
  HistoryOracle oracle(cfg);
  Rng rng(seed);
  std::vector<std::pair<Rank, int>> open;  // (rank, fd), both sides
  SimTime now = 0;
  auto pick_open = [&]() { return open[rng.below(open.size())]; };
  auto drop = [&](Rank r, int fd) {
    std::erase(open, std::pair{r, fd});
  };
  for (int step = 0; step < 1500; ++step) {
    now += static_cast<SimTime>(rng.range(1, 4));
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step);
    const auto op = rng.below(1000);
    if (step % 150 == 149) {
      // Quiesce: let every write settle, then close everything, so the
      // weaker models' compaction passes have something to fold.
      now += 1000;
      for (const auto& [r, fd] : open) {
        oracle.close(r, fd, now, fs.close(r, fd, now).err == 0);
      }
      open.clear();
    } else if (open.empty() || op < 120) {  // open
      const Rank r = static_cast<Rank>(rng.below(kRanks));
      const std::string& path = kPaths[rng.below(kPaths.size())];
      int flags = trace::kCreate | trace::kRdWr;
      if (rng.chance(0.03)) flags |= trace::kTrunc;
      const auto res = fs.open(r, path, flags, now);
      if (res.fd < 0) continue;  // EROFS (laminated O_TRUNC) or EHOSTDOWN
      oracle.open(r, res.fd, path, flags, now);
      open.emplace_back(r, res.fd);
    } else if (op < 620) {  // pwrite
      const auto [r, fd] = pick_open();
      // Mostly inside the writer's own 32 KiB region (so settled prefixes
      // fold), sometimes anywhere (so writers conflict).
      const Offset off = rng.chance(0.05)
                             ? rng.below(120) * 1024
                             : static_cast<Offset>(r) * 32768 +
                                   rng.below(24) * 1024;
      const std::uint64_t len = 512 + rng.below(8) * 1024;
      const auto res = fs.pwrite(r, fd, off, len, now);
      if (res.err != 0) {
        ASSERT_TRUE(oracle.laminated_fd(r, fd)) << where;
        continue;
      }
      oracle.pwrite(r, fd, off, len, now);
    } else if (op < 800) {  // pread
      const auto [r, fd] = pick_open();
      const Offset off = rng.below(128) * 1024;
      const std::uint64_t len = 1 + rng.below(32) * 1024;
      const auto res = fs.pread(r, fd, off, len, now);
      ASSERT_EQ(extents_str(res.extents),
                extents_str(oracle.pread(r, fd, off, len, now)))
          << where;
    } else if (op < 880) {  // fsync
      const auto [r, fd] = pick_open();
      if (fs.fsync(r, fd, now).err == 0) oracle.fsync(r, fd, now);
    } else if (op < 960) {  // close
      const auto [r, fd] = pick_open();
      const auto res = fs.close(r, fd, now);
      oracle.close(r, fd, now, res.err == 0);
      drop(r, fd);
    } else if (op < 970) {  // ftruncate
      const auto [r, fd] = pick_open();
      const Offset len = rng.below(140) * 1024;
      if (fs.ftruncate(r, fd, len, now).err == 0 &&
          !oracle.laminated_fd(r, fd)) {
        oracle.ftruncate(r, fd, len);
      }
    } else if (op < 973) {  // laminate
      const std::string& path = kPaths[rng.below(kPaths.size())];
      if (oracle.file(path) != nullptr && fs.laminate(path, now).err == 0) {
        oracle.laminate(path, now);
      }
    } else if (op < 976) {  // unlink (open handles keep the file)
      const std::string& path = kPaths[rng.below(kPaths.size())];
      if (fs.unlink(path, now).ret == 0) oracle.unlink(path);
    } else if (op < 986) {  // crash a rank
      const Rank r = static_cast<Rank>(rng.below(kRanks));
      ASSERT_EQ(fs.crash_rank(r, now), oracle.crash(r, now)) << where;
      std::erase_if(open, [&](const auto& h) { return h.first == r; });
    } else if (mds_crash != nullptr) {  // metadata server down / back up
      mds_crash(fs, now, rng.chance(0.5));
    }
    ASSERT_EQ(fs.lock_stats().requests, oracle.lock_stats().requests) << where;
    ASSERT_EQ(fs.lock_stats().revocations, oracle.lock_stats().revocations)
        << where;
    if (step % 25 == 0) {
      for (const auto& path : kPaths) {
        const FileCore* f = oracle.file(path);
        ASSERT_EQ(fs.exists(path), f != nullptr) << where;
        if (f == nullptr) continue;
        ASSERT_EQ(fs.file_size(path), f->size) << where;
        ASSERT_EQ(extents_str(fs.strong_view(path, 0, f->size + 4096)),
                  extents_str(detail::strong_view_of(*f, 0, f->size + 4096)))
            << where << " path " << path;
      }
    }
  }
  // Every rank's view of every live file through a fresh descriptor.
  for (const auto& path : kPaths) {
    if (oracle.file(path) == nullptr) continue;
    for (Rank r = 0; r < kRanks; ++r) {
      now += 1;
      const auto res = fs.open(r, path, trace::kRdOnly, now);
      if (res.fd < 0) continue;
      oracle.open(r, res.fd, path, trace::kRdOnly, now);
      now += 1;
      ASSERT_EQ(extents_str(fs.pread(r, res.fd, 0, 1u << 20, now).extents),
                extents_str(oracle.pread(r, res.fd, 0, 1u << 20, now)))
          << "final view, seed " << seed << " rank " << r << " path " << path;
    }
  }
}

TEST(WriterIndex, PfsMatchesWholeHistoryOracle) {
  for (const auto model : kModels) {
    SCOPED_TRACE(to_string(model));
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const PfsConfig cfg = script_cfg(model);
      Pfs fs(cfg);
      replay(fs, cfg, seed);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(WriterIndex, CompactionActuallyFoldsInTheScript) {
  // The differential above only covers compaction if passes fold; make
  // sure they do under every model.
  for (const auto model : kModels) {
    SCOPED_TRACE(to_string(model));
    std::uint64_t folded = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const PfsConfig cfg = script_cfg(model);
      Pfs fs(cfg);
      replay(fs, cfg, seed);
      folded += fs.compaction_stats().folded_writes;
    }
    EXPECT_GT(folded, 0u);
  }
}

TEST(WriterIndex, ClusterMatchesWholeHistoryOracle) {
  for (const auto model : kModels) {
    SCOPED_TRACE(to_string(model));
    for (std::uint64_t seed = 101; seed <= 112; ++seed) {
      const PfsConfig cfg = script_cfg(model);
      PfsCluster fs(ClusterConfig{.base = cfg,
                                  .mds_count = 2,
                                  .ost_count = 3,
                                  .stripe = 4096,
                                  .mds_replicas = 1});
      // With no standby, a crashed shard fails every metadata op until it
      // restarts: opens and fsyncs fail, and closes lose their commit.
      replay<PfsCluster>(fs, cfg, seed, [](PfsCluster& c, SimTime now,
                                            bool restart) {
        c.apply_server_event(
            {fault::ServerKind::Mds, static_cast<int>(now % 2), now, restart},
            now);
      });
      if (HasFatalFailure()) return;
    }
  }
}

TEST(WriterIndex, StaleLockEntriesArePrunedExactly) {
  // Two writers trade one block without closing, so each one's held list
  // fills with revoked entries until it is pruned. Closing a writer after
  // every possible number of trades (so some close lands right after a
  // prune) must release exactly the blocks it still holds: a third rank's
  // writes over both blocks then see the oracle's revocations.
  const PfsConfig cfg = script_cfg(ConsistencyModel::Strong);
  const int flags = trace::kCreate | trace::kRdWr;
  for (int trades = 1; trades <= 60; ++trades) {
    SCOPED_TRACE(trades);
    Pfs fs(cfg);
    HistoryOracle oracle(cfg);
    SimTime now = 0;
    int fds[3] = {};
    for (Rank r = 0; r < 3; ++r) {
      fds[r] = fs.open(r, "f", flags, ++now).fd;
      oracle.open(r, fds[r], "f", flags, now);
    }
    auto pwrite = [&](Rank r, Offset off, std::uint64_t len) {
      (void)fs.pwrite(r, fds[r], off, len, ++now);
      oracle.pwrite(r, fds[r], off, len, now);
    };
    auto pread = [&](Rank r, Offset off, std::uint64_t len) {
      (void)fs.pread(r, fds[r], off, len, ++now);
      (void)oracle.pread(r, fds[r], off, len, now);
    };
    for (int i = 0; i < trades; ++i) {
      pwrite(i % 2, 0, 100);     // block 0 changes hands every time
      pread(i % 2, 4096, 100);   // both writers share block 1 ...
      if (i % 5 == 4) pwrite(i % 2, 4096, 10);  // ... until one takes it
    }
    (void)fs.close(0, fds[0], ++now);
    oracle.close(0, fds[0], now, true);
    pwrite(2, 0, 8192);
    pwrite(1, 0, 8192);
    ASSERT_EQ(fs.lock_stats().requests, oracle.lock_stats().requests);
    ASSERT_EQ(fs.lock_stats().revocations, oracle.lock_stats().revocations);
  }
}

}  // namespace
}  // namespace pfsem::vfs
