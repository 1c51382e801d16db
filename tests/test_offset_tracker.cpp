// Unit + property tests for offset reconstruction (Section 5.1): open
// flags, lseek whence, implicit offset advance, O_APPEND via tracked file
// size, and the expanded-record annotations (t_open / t_commit / t_close).

#include <gtest/gtest.h>

#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/util/error.hpp"
#include "pfsem/util/rng.hpp"

namespace pfsem::core {
namespace {

using trace::Func;
using trace::Layer;

/// Small builder for hand-written POSIX traces.
class TraceBuilder {
 public:
  explicit TraceBuilder(int nranks) { bundle_.nranks = nranks; }

  TraceBuilder& open(Rank r, int fd, const std::string& path, int flags) {
    add(r, Func::open, fd, fd, 0, 0, flags, path);
    return *this;
  }
  TraceBuilder& close(Rank r, int fd) {
    add(r, Func::close, fd, 0, 0, 0, 0, "");
    return *this;
  }
  TraceBuilder& write(Rank r, int fd, std::uint64_t n) {
    add(r, Func::write, fd, static_cast<std::int64_t>(n), 0, n, 0, "");
    return *this;
  }
  TraceBuilder& read(Rank r, int fd, std::uint64_t n) {
    add(r, Func::read, fd, static_cast<std::int64_t>(n), 0, n, 0, "");
    return *this;
  }
  TraceBuilder& pwrite(Rank r, int fd, Offset off, std::uint64_t n) {
    add(r, Func::pwrite, fd, static_cast<std::int64_t>(n), off, n, 0, "");
    return *this;
  }
  TraceBuilder& pread(Rank r, int fd, Offset off, std::uint64_t n) {
    add(r, Func::pread, fd, static_cast<std::int64_t>(n), off, n, 0, "");
    return *this;
  }
  TraceBuilder& lseek(Rank r, int fd, std::int64_t off, int whence) {
    add(r, Func::lseek, fd, 0, static_cast<Offset>(off), 0, whence, "");
    return *this;
  }
  TraceBuilder& fsync(Rank r, int fd) {
    add(r, Func::fsync, fd, 0, 0, 0, 0, "");
    return *this;
  }
  TraceBuilder& ftruncate(Rank r, int fd, Offset len) {
    add(r, Func::ftruncate, fd, 0, len, 0, 0, "");
    return *this;
  }

  [[nodiscard]] const trace::TraceBundle& bundle() const { return bundle_; }
  [[nodiscard]] SimTime last_time() const { return t_; }

 private:
  void add(Rank r, Func f, int fd, std::int64_t ret, Offset off,
           std::uint64_t count, int flags, const std::string& path) {
    trace::Record rec;
    rec.tstart = t_;
    rec.tend = t_ + 5;
    t_ += 10;
    rec.rank = r;
    rec.layer = Layer::Posix;
    rec.func = f;
    rec.fd = fd;
    rec.ret = ret;
    rec.offset = off;
    rec.count = count;
    rec.flags = flags;
    rec.file = path.empty() ? kNoFile : bundle_.intern(path);
    bundle_.records.push_back(std::move(rec));
  }

  trace::TraceBundle bundle_;
  SimTime t_ = 0;
};

TEST(OffsetTracker, SequentialWritesAdvance) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate).write(0, 3, 100).write(0, 3, 50).close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  const auto& acc = log.at("f").accesses;
  ASSERT_EQ(acc.size(), 2u);
  EXPECT_EQ(acc[0].ext, (Extent{0, 100}));
  EXPECT_EQ(acc[1].ext, (Extent{100, 150}));
  EXPECT_EQ(acc[0].type, AccessType::Write);
}

TEST(OffsetTracker, SeekSetCurEnd) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate)
      .write(0, 3, 1000)
      .lseek(0, 3, 100, trace::kSeekSet)
      .read(0, 3, 50)  // [100,150)
      .lseek(0, 3, 30, trace::kSeekCur)
      .read(0, 3, 20)  // [180,200)
      .lseek(0, 3, -100, trace::kSeekEnd)
      .read(0, 3, 100)  // [900,1000)
      .close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  const auto& acc = log.at("f").accesses;
  ASSERT_EQ(acc.size(), 4u);
  EXPECT_EQ(acc[1].ext, (Extent{100, 150}));
  EXPECT_EQ(acc[2].ext, (Extent{180, 200}));
  EXPECT_EQ(acc[3].ext, (Extent{900, 1000}));
}

TEST(OffsetTracker, AppendTracksSharedFileSize) {
  // Two ranks appending to the same file: each write lands at the current
  // global EOF, which only tracked size can reconstruct.
  TraceBuilder tb(2);
  tb.open(0, 3, "log", trace::kCreate | trace::kAppend)
      .open(1, 3, "log", trace::kAppend)
      .write(0, 3, 100)   // [0,100)
      .write(1, 3, 200)   // [100,300)
      .write(0, 3, 50)    // [300,350)
      .close(0, 3)
      .close(1, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  const auto& acc = log.at("log").accesses;
  ASSERT_EQ(acc.size(), 3u);
  EXPECT_EQ(acc[0].ext, (Extent{0, 100}));
  EXPECT_EQ(acc[1].ext, (Extent{100, 300}));
  EXPECT_EQ(acc[2].ext, (Extent{300, 350}));
}

TEST(OffsetTracker, TruncResetsSize) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate)
      .write(0, 3, 500)
      .close(0, 3)
      .open(0, 4, "f", trace::kTrunc)
      .lseek(0, 4, 0, trace::kSeekEnd)
      .write(0, 4, 10)  // EOF is 0 after O_TRUNC
      .close(0, 4);
  const auto log = reconstruct_accesses(tb.bundle());
  const auto& acc = log.at("f").accesses;
  EXPECT_EQ(acc.back().ext, (Extent{0, 10}));
}

TEST(OffsetTracker, FtruncateAdjustsSeekEnd) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate)
      .write(0, 3, 500)
      .ftruncate(0, 3, 100)
      .lseek(0, 3, 0, trace::kSeekEnd)
      .write(0, 3, 10)
      .close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  EXPECT_EQ(log.at("f").accesses.back().ext, (Extent{100, 110}));
}

TEST(OffsetTracker, PreadDoesNotMoveOffset) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate)
      .write(0, 3, 100)
      .pread(0, 3, 10, 20)
      .write(0, 3, 10)  // continues at 100, not 30
      .close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  const auto& acc = log.at("f").accesses;
  EXPECT_EQ(acc[2].ext, (Extent{100, 110}));
}

TEST(OffsetTracker, AnnotatesOpenCommitClose) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate)   // t=0
      .write(0, 3, 100)                // t=10
      .fsync(0, 3)                     // t=20
      .write(0, 3, 100)                // t=30
      .close(0, 3);                    // t=40
  const auto log = reconstruct_accesses(tb.bundle());
  const auto& fl = log.at("f");
  ASSERT_EQ(fl.accesses.size(), 2u);
  const auto& w1 = fl.accesses[0];
  EXPECT_EQ(w1.t_open, 0);
  EXPECT_EQ(w1.t_commit, 20) << "fsync is the first succeeding commit";
  EXPECT_EQ(w1.t_close, 40);
  const auto& w2 = fl.accesses[1];
  EXPECT_EQ(w2.t_commit, 40) << "close acts as the commit for w2";
  EXPECT_EQ(w2.t_close, 40);
  // Commit table holds both the fsync and the close.
  EXPECT_EQ(fl.commits.at(0).size(), 2u);
  EXPECT_EQ(fl.closes.at(0).size(), 1u);
}

TEST(OffsetTracker, PerRankFdSpacesAreIndependent) {
  TraceBuilder tb(2);
  tb.open(0, 3, "a", trace::kCreate)
      .open(1, 3, "b", trace::kCreate)  // same fd number, different rank
      .write(0, 3, 10)
      .write(1, 3, 20)
      .close(0, 3)
      .close(1, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  EXPECT_EQ(log.at("a").accesses[0].ext, (Extent{0, 10}));
  EXPECT_EQ(log.at("b").accesses[0].ext, (Extent{0, 20}));
}

TEST(OffsetTracker, ZeroByteOpsIgnored) {
  TraceBuilder tb(1);
  tb.open(0, 3, "f", trace::kCreate).write(0, 3, 0).read(0, 3, 0).close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  EXPECT_TRUE(log.at("f").accesses.empty());
}

TEST(OffsetTracker, UnknownFdThrows) {
  TraceBuilder tb(1);
  tb.write(0, 9, 10);
  EXPECT_THROW(reconstruct_accesses(tb.bundle()), Error);
}

/// Message of the pfsem::Error reconstructing `tb` throws ("" if none).
std::string reconstruct_error(const TraceBuilder& tb) {
  try {
    (void)reconstruct_accesses(tb.bundle());
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(OffsetTracker, UnknownFdMessagesNameTheOp) {
  struct Case {
    void (*add)(TraceBuilder&);
    const char* msg;
  };
  const Case cases[] = {
      {[](TraceBuilder& tb) { tb.write(0, 3, 10); },
       "read/write on unknown fd in trace"},
      {[](TraceBuilder& tb) { tb.read(0, 3, 10); },
       "read/write on unknown fd in trace"},
      {[](TraceBuilder& tb) { tb.pwrite(0, 3, 0, 10); },
       "pread/pwrite on unknown fd in trace"},
      {[](TraceBuilder& tb) { tb.pread(0, 3, 0, 10); },
       "pread/pwrite on unknown fd in trace"},
      {[](TraceBuilder& tb) { tb.lseek(0, 3, 0, trace::kSeekSet); },
       "lseek on unknown fd in trace"},
      {[](TraceBuilder& tb) { tb.fsync(0, 3); }, "fsync on unknown fd in trace"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.msg);
    // Never opened, closed, and open only on another rank.
    TraceBuilder never(2);
    c.add(never);
    EXPECT_NE(reconstruct_error(never).find(c.msg), std::string::npos);
    TraceBuilder closed(2);
    closed.open(0, 3, "f", trace::kCreate).close(0, 3);
    c.add(closed);
    EXPECT_NE(reconstruct_error(closed).find(c.msg), std::string::npos);
    TraceBuilder other(2);
    other.open(1, 3, "f", trace::kCreate);
    c.add(other);
    EXPECT_NE(reconstruct_error(other).find(c.msg), std::string::npos);
  }
}

TEST(OffsetTracker, CloseOfOneRankLeavesTheOtherRanksSameFd) {
  TraceBuilder tb(2);
  tb.open(0, 3, "a", trace::kCreate)
      .open(1, 3, "b", trace::kCreate)
      .write(1, 3, 20)
      .close(0, 3)
      .write(1, 3, 5)  // [20,25): rank 1's offset survived
      .close(1, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  EXPECT_EQ(log.at("b").accesses[1].ext, (Extent{20, 25}));
}

TEST(OffsetTracker, ReopenedFdNumberStartsAFreshOffset) {
  // A trace may reuse an fd number after close (real POSIX does); the
  // table entry must start over, not resume the old offset.
  TraceBuilder tb(1);
  tb.open(0, 3, "a", trace::kCreate)
      .write(0, 3, 100)
      .close(0, 3)
      .open(0, 3, "b", trace::kCreate)
      .write(0, 3, 7)
      .close(0, 3);
  const auto log = reconstruct_accesses(tb.bundle());
  EXPECT_EQ(log.at("b").accesses[0].ext, (Extent{0, 7}));
}

TEST(OffsetTracker, OpenWithOutOfRangeRankThrows) {
  for (const Rank bad : {Rank{2}, Rank{-3}, Rank{2147483647}}) {
    SCOPED_TRACE(bad);
    TraceBuilder tb(2);
    tb.open(bad, 3, "f", trace::kCreate);
    EXPECT_NE(reconstruct_error(tb).find("open record rank out of range"),
              std::string::npos);
  }
}

// Property test: annotation resolves every access's (t_open, t_commit,
// t_close) exactly as a per-access binary search of its rank's tables,
// on random multi-rank traces sharing one file. The long traces stage
// enough opens/commits/closes to be folded in several batches; the
// tables must still hold every event.
TEST(OffsetTrackerProperty, AnnotationMatchesPerAccessLookup) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    constexpr int kRanks = 5;
    TraceBuilder tb(kRanks);
    std::vector<int> fd(kRanks, -1);
    std::vector<int> next_fd(kRanks, 3);
    std::vector<std::size_t> opens(kRanks), commits(kRanks), closes(kRanks);
    const int steps = seed <= 16 ? 300 : 12000;
    for (int i = 0; i < steps; ++i) {
      const auto r = static_cast<Rank>(rng.below(kRanks));
      const auto ri = static_cast<std::size_t>(r);
      auto& mine = fd[ri];
      if (mine < 0) {
        mine = next_fd[ri]++;
        tb.open(r, mine, "f", trace::kCreate);
        ++opens[ri];
        continue;
      }
      switch (rng.below(6)) {
        case 0:
          tb.fsync(r, mine);
          ++commits[ri];
          break;
        case 1:
          tb.close(r, mine);
          ++commits[ri];
          ++closes[ri];
          mine = -1;
          break;
        default: tb.pwrite(r, mine, rng.below(1000), 1 + rng.below(50));
      }
    }
    const auto log = reconstruct_accesses(tb.bundle());
    const auto& fl = log.at("f");
    ASSERT_FALSE(fl.accesses.empty());
    auto count = [](const auto& table, Rank r) {
      const auto it = table.find(r);
      return it == table.end() ? std::size_t{0} : it->second.size();
    };
    for (Rank r = 0; r < kRanks; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      EXPECT_EQ(count(fl.opens, r), opens[ri]) << "seed " << seed;
      EXPECT_EQ(count(fl.commits, r), commits[ri]) << "seed " << seed;
      EXPECT_EQ(count(fl.closes, r), closes[ri]) << "seed " << seed;
    }
    auto last_at_or_before = [](const auto& table, Rank r, SimTime t,
                                SimTime none) {
      const auto it = table.find(r);
      if (it == table.end()) return none;
      const auto ub = std::upper_bound(it->second.begin(), it->second.end(), t);
      return ub == it->second.begin() ? none : *std::prev(ub);
    };
    auto first_after = [](const auto& table, Rank r, SimTime t) {
      const auto it = table.find(r);
      if (it == table.end()) return kTimeNever;
      const auto ub = std::upper_bound(it->second.begin(), it->second.end(), t);
      return ub == it->second.end() ? kTimeNever : *ub;
    };
    for (const auto& a : fl.accesses) {
      EXPECT_EQ(a.t_open, last_at_or_before(fl.opens, a.rank, a.t, 0))
          << "seed " << seed;
      EXPECT_EQ(a.t_commit, first_after(fl.commits, a.rank, a.t))
          << "seed " << seed;
      EXPECT_EQ(a.t_close, first_after(fl.closes, a.rank, a.t))
          << "seed " << seed;
    }
    EXPECT_TRUE(fl.events.empty()) << "annotation folds every staged event";
  }
}

// Property test: a random legal op sequence reconstructs to exactly the
// offsets a reference file-descriptor model produces.
TEST(OffsetTrackerProperty, MatchesReferenceModelOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    TraceBuilder tb(1);
    Offset model_offset = 0;
    Offset model_size = 0;
    std::vector<Extent> expected;
    tb.open(0, 3, "f", trace::kCreate);
    const int ops = 60;
    for (int i = 0; i < ops; ++i) {
      switch (rng.below(5)) {
        case 0: {  // write
          const auto n = 1 + rng.below(100);
          expected.push_back({model_offset, model_offset + n});
          model_offset += n;
          model_size = std::max(model_size, model_offset);
          tb.write(0, 3, n);
          break;
        }
        case 1: {  // read (clip to size to keep ret == count simple)
          if (model_offset >= model_size) break;
          const auto avail = model_size - model_offset;
          const auto n = 1 + rng.below(std::min<std::uint64_t>(avail, 100));
          expected.push_back({model_offset, model_offset + n});
          model_offset += n;
          tb.read(0, 3, n);
          break;
        }
        case 2: {  // pwrite
          const auto off = rng.below(model_size + 50);
          const auto n = 1 + rng.below(100);
          expected.push_back({off, off + n});
          model_size = std::max(model_size, off + n);
          tb.pwrite(0, 3, off, n);
          break;
        }
        case 3: {  // lseek SET / CUR / END
          switch (rng.below(3)) {
            case 0: {
              const auto off = rng.below(model_size + 10);
              model_offset = off;
              tb.lseek(0, 3, static_cast<std::int64_t>(off), trace::kSeekSet);
              break;
            }
            case 1: {
              const auto d = static_cast<std::int64_t>(rng.below(20));
              model_offset += static_cast<Offset>(d);
              tb.lseek(0, 3, d, trace::kSeekCur);
              break;
            }
            default: {
              model_offset = model_size;
              tb.lseek(0, 3, 0, trace::kSeekEnd);
              break;
            }
          }
          break;
        }
        default: {  // ftruncate smaller
          if (model_size == 0) break;
          const auto len = rng.below(model_size);
          model_size = len;
          tb.ftruncate(0, 3, len);
          break;
        }
      }
    }
    tb.close(0, 3);
    const auto log = reconstruct_accesses(tb.bundle());
    const auto& acc = log.at("f").accesses;
    ASSERT_EQ(acc.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < acc.size(); ++i) {
      EXPECT_EQ(acc[i].ext, expected[i]) << "seed " << seed << " op " << i;
    }
  }
}

}  // namespace
}  // namespace pfsem::core
