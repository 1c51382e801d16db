#pragma once
// Byte-level access model — the output of offset reconstruction and the
// input of every analysis. Follows the paper's expanded record format
// (Section 5.2): each I/O operation becomes a tuple
//   (t, r, os, oe, type, to, tc)
// where `to` is the last preceding open and `tc` the first succeeding
// commit by the same process on the same file. We carry the first
// succeeding *close* separately because the session-semantics condition
// needs a close specifically, while the commit condition accepts any of
// fsync/fdatasync/fflush/close/fclose (paper footnote 2).
//
// Files are identified by interned FileId throughout: the store is
// columnar, one FileLog slot per table id in a dense vector, so analyses
// shard per file with an O(1) index instead of walking a string-keyed map.

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pfsem/trace/path_table.hpp"
#include "pfsem/util/extent.hpp"
#include "pfsem/util/types.hpp"

namespace pfsem::core {

enum class AccessType : std::uint8_t { Read, Write };

[[nodiscard]] constexpr const char* to_string(AccessType t) {
  return t == AccessType::Read ? "read" : "write";
}

struct Access {
  SimTime t = 0;  ///< entry timestamp (local rank clock)
  Rank rank = kNoRank;
  Extent ext;     ///< [os, oe) byte range
  AccessType type = AccessType::Read;
  /// Last open of this file by `rank` at or before `t`.
  SimTime t_open = 0;
  /// First commit op (fsync/fdatasync/fflush/close/fclose) by `rank` on
  /// this file after `t`; kTimeNever if none.
  SimTime t_commit = kTimeNever;
  /// First close by `rank` on this file after `t`; kTimeNever if none.
  SimTime t_close = kTimeNever;
  /// Index into TraceBundle::records this access was derived from.
  std::size_t record_index = 0;
};

/// An open, commit or close by one rank, as offset reconstruction meets
/// it (a close is also a commit, paper footnote 2).
struct SyncEvent {
  enum class Kind : std::uint8_t { Open, Commit, Close };
  SimTime t = 0;
  Rank rank = kNoRank;
  Kind kind = Kind::Open;
};

/// All reconstructed activity on one file. A slot is *active* once the
/// run touched the file (open/data/commit op); interned-but-untouched
/// paths keep an inactive placeholder slot so the vector stays dense.
struct FileLog {
  FileId file = kNoFile;  ///< own id; kNoFile while the slot is inactive
  /// Accesses in timestamp order.
  std::vector<Access> accesses;
  /// Per-rank sorted open/close/commit timestamps (for condition checks).
  /// Filled by annotation from `events`.
  std::map<Rank, std::vector<SimTime>> opens;
  std::map<Rank, std::vector<SimTime>> closes;
  std::map<Rank, std::vector<SimTime>> commits;
  /// Open/commit/close events not yet folded into the tables above:
  /// reconstruction appends here (no per-record lookup by rank) and folds
  /// them with one sort per batch and once more at annotation.
  std::vector<SyncEvent> events;

  [[nodiscard]] bool active() const { return file != kNoFile; }

  [[nodiscard]] std::uint64_t write_bytes() const {
    std::uint64_t n = 0;
    for (const auto& a : accesses) {
      if (a.type == AccessType::Write) n += a.ext.size();
    }
    return n;
  }
  [[nodiscard]] std::uint64_t read_bytes() const {
    std::uint64_t n = 0;
    for (const auto& a : accesses) {
      if (a.type == AccessType::Read) n += a.ext.size();
    }
    return n;
  }
};

/// Reconstructed byte-level activity of a whole run: a PathTable plus a
/// dense FileLog column indexed by FileId.
struct TraceStore {
  int nranks = 0;
  /// Interned paths; FileLog slot i describes paths.view(i).
  trace::PathTable paths;
  /// Dense per-file logs; files[id] may be inactive (see FileLog::active).
  std::vector<FileLog> files;

  /// Slot for `id`, growing the column and marking the slot active.
  FileLog& file(FileId id) {
    require(id != kNoFile && id < paths.size(),
            "FileId not interned in this store");
    if (files.size() < paths.size()) files.resize(paths.size());
    FileLog& fl = files[id];
    fl.file = id;
    return fl;
  }

  /// Slot for `path`, interning it if new (test/bench convenience that
  /// mirrors the old map's operator[]).
  FileLog& file(std::string_view path) { return file(paths.intern(path)); }

  /// Insert or replace the whole log for `path` (test/bench convenience
  /// that mirrors the old map's insert; keeps the slot's id consistent).
  FileLog& put(std::string_view path, FileLog fl) {
    const FileId id = paths.intern(path);
    if (files.size() < paths.size()) files.resize(paths.size());
    fl.file = id;
    files[id] = std::move(fl);
    return files[id];
  }

  /// Active slot for `path`; throws if absent (mirrors the old map's
  /// at()). Tests and tools use this; analyses index by FileId.
  [[nodiscard]] const FileLog& at(std::string_view path) const {
    const FileLog* fl = find(path);
    require(fl != nullptr, "no such file in store: " + std::string(path));
    return *fl;
  }

  /// Active slot for `path`, or nullptr if the path was never touched.
  [[nodiscard]] const FileLog* find(std::string_view path) const {
    const FileId id = paths.find(path);
    if (id == kNoFile || id >= files.size() || !files[id].active()) {
      return nullptr;
    }
    return &files[id];
  }

  [[nodiscard]] std::string_view path(FileId id) const {
    return paths.view(id);
  }

  /// Number of active files (what the old string-keyed map counted).
  [[nodiscard]] std::size_t file_count() const {
    std::size_t n = 0;
    for (const auto& fl : files) n += fl.active();
    return n;
  }

  /// Active ids in first-open (id) order.
  [[nodiscard]] std::vector<FileId> active_ids() const {
    std::vector<FileId> ids;
    ids.reserve(files.size());
    for (const auto& fl : files) {
      if (fl.active()) ids.push_back(fl.file);
    }
    return ids;
  }

  /// Active ids sorted by path — the iteration order of the retired
  /// std::map, for user-facing output that promises path order.
  [[nodiscard]] std::vector<FileId> ids_by_path() const {
    std::vector<FileId> ids = active_ids();
    std::sort(ids.begin(), ids.end(), [&](FileId a, FileId b) {
      return paths.view(a) < paths.view(b);
    });
    return ids;
  }
};

/// Historical name: analyses consume the reconstructed store.
using AccessLog = TraceStore;

/// Arena view of a TraceStore: every access copied into one flat
/// file-major vector, with per-file index slices, so parallel analysis
/// shards index files by FileId (slice index == FileId, no map walking
/// inside tasks) and read contiguous memory. Holds pointers into the
/// source store, so the store must outlive the view.
struct FlatAccessLog {
  int nranks = 0;
  std::vector<Access> arena;  ///< all accesses, grouped by file, id order
  struct FileSlice {
    FileId file = kNoFile;          ///< slot id (kNoFile: inactive slot)
    const FileLog* log = nullptr;   ///< source (open/close/commit tables)
    std::size_t begin = 0, end = 0; ///< [begin, end) into `arena`
  };
  /// One slice per store slot, index == FileId (inactive slots empty).
  std::vector<FileSlice> files;

  [[nodiscard]] std::span<const Access> accesses(std::size_t f) const {
    return {arena.data() + files[f].begin, files[f].end - files[f].begin};
  }

  [[nodiscard]] static FlatAccessLog from(const TraceStore& log) {
    FlatAccessLog flat;
    flat.nranks = log.nranks;
    std::size_t total = 0;
    for (const auto& fl : log.files) total += fl.accesses.size();
    flat.arena.reserve(total);
    flat.files.reserve(log.files.size());
    for (std::size_t id = 0; id < log.files.size(); ++id) {
      const FileLog& fl = log.files[id];
      const std::size_t begin = flat.arena.size();
      flat.arena.insert(flat.arena.end(), fl.accesses.begin(),
                        fl.accesses.end());
      flat.files.push_back(
          {fl.active() ? static_cast<FileId>(id) : kNoFile, &fl, begin,
           flat.arena.size()});
    }
    return flat;
  }
};

}  // namespace pfsem::core
