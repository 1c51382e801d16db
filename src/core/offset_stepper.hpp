#pragma once
// Incremental core of offset reconstruction (private to pfsem_core).
//
// OffsetStepper replays Posix records one at a time — in (tstart,
// emission-index) order — against the per-fd / per-file state machine of
// Section 5.1; annotate_accesses is the (t_open, t_commit, t_close) pass
// of Section 5.2. Extracted from reconstruct_accesses so the one-shot
// bundle path (offset_tracker.cpp) and the streaming analyzer
// (stream_analyze.cpp) run the *same* transition code on the same order —
// identical AccessLogs by construction, which is what the streaming
// differential tests pin down.

#include <algorithm>
#include <string>
#include <vector>

#include "pfsem/core/access.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/trace/record.hpp"
#include "pfsem/util/error.hpp"
#include "pfsem/util/fd_table.hpp"

namespace pfsem::core::detail {

/// Fold `fl.events` into its per-rank open/commit/close tables (a close
/// also counts as a commit) with one sort. Defined in offset_tracker.cpp.
void fold_events(FileLog& fl);

class OffsetStepper {
 public:
  /// `log` must already carry its final path table (files sized to it);
  /// the stepper appends accesses/opens/commits/closes as records arrive.
  OffsetStepper(AccessLog& log, OffsetTrackerOptions opts)
      : log_(log),
        opts_(opts),
        sizes_(log.paths.size(), 0),
        open_fds_(log.paths.size(), 0) {}

  /// Replay one Posix record; `index` is its global emission index (the
  /// tie-break key of the processing order, recorded on each Access).
  void step(const trace::Record& rec, std::size_t index) {
    using trace::Func;
    using Kind = SyncEvent::Kind;
    switch (rec.func) {
      case Func::open: {
        require(rec.ret >= 0, "trace contains failed open");
        require(rec.file != kNoFile, "open record without a path");
        require(rec.rank >= 0 && (log_.nranks <= 0 || rec.rank < log_.nranks),
                "open record rank out of range in trace");
        FdState st;
        st.file = rec.file;
        st.flags = rec.flags;
        if (rec.flags & trace::kTrunc) sizes_[st.file] = 0;
        st.offset = 0;
        const int fd = static_cast<int>(rec.ret);
        // Replacing a still-open fd (trace reuse) releases its hold on
        // the old file before the new one takes the slot.
        if (const FdState* prev = fds_.find(rec.rank, fd)) {
          --open_fds_[prev->file];
        }
        fds_.put(rec.rank, fd, st);
        ++open_fds_[st.file];
        stage(rec.file, {rec.tstart, rec.rank, Kind::Open});
        break;
      }
      case Func::close: {
        if (const FdState* st = fds_.find(rec.rank, rec.fd)) {
          const FileId f = st->file;
          stage(f, {rec.tstart, rec.rank, Kind::Close});
          --open_fds_[f];
          fds_.erase(rec.rank, rec.fd);
        }
        break;
      }
      case Func::read:
      case Func::write: {
        FdState* st = fds_.find(rec.rank, rec.fd);
        require(st != nullptr, "read/write on unknown fd in trace");
        const bool is_write = rec.func == Func::write;
        Offset off = st->offset;
        if (is_write && (st->flags & trace::kAppend)) off = sizes_[st->file];
        const auto len = static_cast<std::uint64_t>(rec.ret);
        add_access(rec, index, st->file, off, len,
                   is_write ? AccessType::Write : AccessType::Read);
        st->offset = off + len;
        break;
      }
      case Func::pread:
      case Func::pwrite: {
        const FdState* st = fds_.find(rec.rank, rec.fd);
        require(st != nullptr, "pread/pwrite on unknown fd in trace");
        add_access(rec, index, st->file, rec.offset,
                   static_cast<std::uint64_t>(rec.ret),
                   rec.func == Func::pwrite ? AccessType::Write
                                            : AccessType::Read);
        break;
      }
      case Func::lseek: {
        FdState* st = fds_.find(rec.rank, rec.fd);
        require(st != nullptr, "lseek on unknown fd in trace");
        const auto delta = static_cast<std::int64_t>(rec.offset);
        std::int64_t base = 0;
        switch (rec.flags) {
          case trace::kSeekSet: base = 0; break;
          case trace::kSeekCur:
            base = static_cast<std::int64_t>(st->offset);
            break;
          case trace::kSeekEnd:
            base = static_cast<std::int64_t>(sizes_[st->file]);
            break;
          default: require(false, "bad whence in trace");
        }
        st->offset = static_cast<Offset>(base + delta);
        break;
      }
      case Func::fsync:
      case Func::fdatasync: {
        const FdState* st = fds_.find(rec.rank, rec.fd);
        require(st != nullptr, "fsync on unknown fd in trace");
        stage(st->file, {rec.tstart, rec.rank, Kind::Commit});
        break;
      }
      case Func::ftruncate: {
        if (const FdState* st = fds_.find(rec.rank, rec.fd)) {
          sizes_[st->file] = rec.offset;
        }
        break;
      }
      default:
        break;  // metadata/utility ops don't contribute byte accesses
    }
  }

  /// Descriptors currently open on `f` — the windowed analyzer's
  /// retirement guard: while any fd holds the file, a future record
  /// could still reach its FileLog through per-fd state, so the file
  /// must stay in the window.
  [[nodiscard]] std::uint32_t open_fds(FileId f) const {
    return f < open_fds_.size() ? open_fds_[f] : 0;
  }

 private:
  struct FdState {
    FileId file = kNoFile;
    Offset offset = 0;
    int flags = 0;
  };

  /// Stage an open/commit/close on `f`, folding a full batch into the
  /// per-rank tables so staging stays bounded on busy shared files.
  void stage(FileId f, SyncEvent e) {
    FileLog& fl = log_.file(f);
    fl.events.push_back(e);
    if (fl.events.size() >= kFoldBatch) fold_events(fl);
  }

  static constexpr std::size_t kFoldBatch = 1024;

  void add_access(const trace::Record& rec, std::size_t index, FileId f,
                  Offset off, std::uint64_t len, AccessType type) {
    using trace::Func;
    if (len == 0) return;
    Access a;
    a.t = rec.tstart;
    a.rank = rec.rank;
    a.ext = {off, off + len};
    a.type = type;
    a.record_index = index;
    log_.file(f).accesses.push_back(a);
    if (type == AccessType::Write) {
      Offset& size = sizes_[f];
      size = std::max(size, a.ext.end);
    }
    if (opts_.validate_against_ground_truth &&
        (rec.func == Func::read || rec.func == Func::write ||
         rec.func == Func::pread || rec.func == Func::pwrite)) {
      require(off == rec.offset,
              "offset reconstruction mismatch on " +
                  std::string(log_.paths.view(f)) + ": got " +
                  std::to_string(off) + ", truth " +
                  std::to_string(rec.offset));
    }
  }

  AccessLog& log_;
  OffsetTrackerOptions opts_;
  FdTable<FdState> fds_;
  std::vector<Offset> sizes_;  // up-to-date size per file
  std::vector<std::uint32_t> open_fds_;  // open descriptors per file
};

/// Annotate every access with (t_open, t_commit, t_close) per Section
/// 5.2. Defined in offset_tracker.cpp.
void annotate_accesses(AccessLog& log);

/// The per-file body of annotate_accesses: sort the event tables,
/// stable-sort the accesses by time, then resolve (t_open, t_commit,
/// t_close) for each. The windowed analyzer runs this the moment a file
/// retires from the stream window; the materialized path runs it over
/// every file at once — same code, identical per-file results.
void annotate_file(FileLog& fl);

}  // namespace pfsem::core::detail
