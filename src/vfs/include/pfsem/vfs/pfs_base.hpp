#pragma once
// Shared implementation of the simulated parallel file systems: the
// namespace, the rank-indexed (rank, fd) table, the traffic counters, and the one body
// of every POSIX op, written once around the per-file semantic core
// (file_core.hpp). Semantics and op bodies live in one place; the
// backends differ only in routing, pricing and fault domains, which they
// supply through a small set of private hooks:
//
//   charge_transfer  pricing of a data transfer (and its per-OST traffic):
//                    Pfs takes the slowest stripe, PfsCluster is bound by
//                    the client link.
//   route            availability of the metadata server for one op; the
//                    single server always answers, the cluster routes to
//                    the path's shard and fails over to a standby.
//   route_rename     the same for a rename, which touches two names.
//   degrade_read     post-resolve view of a read; the cluster punches
//                    holes over stripes on a down OST.
//
// Because every op body is shared, the fault-free Pfs-vs-PfsCluster
// differential tests check exactly that routing and pricing change no
// result (docs/topology.md).

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "pfsem/fault/plan.hpp"
#include "pfsem/trace/path_table.hpp"
#include "pfsem/util/fd_table.hpp"
#include "pfsem/vfs/file_core.hpp"
#include "pfsem/vfs/filesystem.hpp"
#include "pfsem/vfs/pfs_types.hpp"

namespace pfsem::obs {
struct Run;
}  // namespace pfsem::obs

namespace pfsem::vfs {

class PfsBase : public FileSystem {
 public:
  ~PfsBase() override;
  PfsBase(const PfsBase&) = delete;
  PfsBase& operator=(const PfsBase&) = delete;

  [[nodiscard]] const LockStats& lock_stats() const { return locks_; }
  [[nodiscard]] const OstStats& ost_stats() const { return osts_; }
  [[nodiscard]] const CompactionStats& compaction_stats() const {
    return compaction_;
  }
  [[nodiscard]] SimDuration meta_latency() const override {
    return cfg_.meta_latency;
  }
  [[nodiscard]] CostSnapshot cost_snapshot() const override {
    return {locks_.requests, locks_.revocations, locks_.meta_ops,
            osts_.total_bytes};
  }

  /// Attach an observability context (nullptr = off, the default). Used
  /// only for counter-track samples (vfs.compacted_writes over sim time);
  /// scalar gauges stay harness-published, so this is one extra branch on
  /// the compaction path and nothing on the data path.
  void set_observer(obs::Run* run) { orun_ = run; }

  // --- file data operations (see FileSystem) ----------------------------
  OpenResult open(Rank r, const std::string& path, int flags,
                  SimTime now) override;
  MetaResult close(Rank r, int fd, SimTime now) override;
  WriteResult write(Rank r, int fd, std::uint64_t count, SimTime now) override;
  WriteResult pwrite(Rank r, int fd, Offset off, std::uint64_t count,
                     SimTime now) override;
  ReadResult read(Rank r, int fd, std::uint64_t count, SimTime now) override;
  ReadResult pread(Rank r, int fd, Offset off, std::uint64_t count,
                   SimTime now) override;
  MetaResult lseek(Rank r, int fd, std::int64_t delta, int whence,
                   SimTime now) override;
  MetaResult fsync(Rank r, int fd, SimTime now) override;
  MetaResult ftruncate(Rank r, int fd, Offset length, SimTime now) override;

  /// UnifyFS-style lamination (Section 3.2): make every write to `path`
  /// globally visible and the file permanently read-only. Subsequent
  /// writes, truncates and O_TRUNC opens fail with EROFS regardless of
  /// model. A commit point, so on the cluster it rides a promoted replica
  /// silently (never fails with EHOSTDOWN).
  MetaResult laminate(const std::string& path, SimTime now);

  // --- namespace / metadata operations ----------------------------------
  MetaResult stat(const std::string& path, SimTime now) override;
  MetaResult access(const std::string& path, SimTime now) override;
  MetaResult unlink(const std::string& path, SimTime now) override;
  MetaResult mkdir(const std::string& path, SimTime now) override;
  MetaResult rename(const std::string& from, const std::string& to,
                    SimTime now) override;

  /// Create `path` with `size` bytes of pre-existing ("genesis") content,
  /// visible to every process under every consistency model — input files
  /// staged before the traced job starts (datasets, configuration decks).
  /// Emits no trace records and no conflicts.
  void preload(const std::string& path, Offset size) override;

  // --- fault injection (pfsem::fault) ------------------------------------
  void set_fault_injector(fault::Injector* injector) override;
  std::vector<VersionTag> crash_rank(Rank r, SimTime now) override;

  // --- introspection (tests & benches) ----------------------------------
  [[nodiscard]] bool exists(const std::string& path) const;
  [[nodiscard]] Offset file_size(const std::string& path) const;
  [[nodiscard]] std::vector<std::string> list_files() const;

  /// What a POSIX-strong PFS would return for this range right now — the
  /// oracle tests compare weaker-model reads against to detect staleness.
  [[nodiscard]] std::vector<ReadExtent> strong_view(const std::string& path,
                                                    Offset off,
                                                    std::uint64_t count) const;

 protected:
  /// `cfg` holds the consistency model and cost knobs; `osts` sizes the
  /// per-OST traffic counters (validated by the backend).
  PfsBase(const PfsConfig& cfg, std::size_t osts);

  PfsConfig cfg_;
  OstStats osts_;
  fault::Injector* injector_ = nullptr;  ///< not owned; nullptr = no faults

 private:
  using File = detail::FileCore;
  /// One open descriptor. `slot` is its rank's entry in file->ranks, so
  /// close/fsync and lock charging reach the caller's pending writes and
  /// held locks without a search.
  struct OpenFile {
    std::shared_ptr<File> file;
    int flags = 0;
    Offset offset = 0;
    SimTime t_open = 0;
    std::uint32_t slot = 0;
  };

  /// Transfer cost of `ext` (updates osts_). An active OST slowdown
  /// (fault injection) stretches it.
  virtual SimDuration charge_transfer(Extent ext, SimTime now) = 0;
  /// Errno of the metadata server's answer for one op on `path` (0 =
  /// served). Commit points pass `can_fail = false`: they cannot surface
  /// an errno, so a nonzero answer only means their metadata effect is
  /// lost. The single server always answers.
  virtual int route(std::string_view path, SimTime now, bool can_fail);
  /// route() for a rename, which touches the entries of both names.
  virtual int route_rename(std::string_view from, std::string_view to,
                           SimTime now);
  /// Rewrite a resolved read of `range` to what the data servers can
  /// actually serve (a no-op when every server is up).
  virtual void degrade_read(std::vector<ReadExtent>& extents, Extent range);

  [[nodiscard]] detail::ResolveEnv env() const {
    return {cfg_.model, cfg_.eventual_propagation, injector_};
  }
  /// The open handle (r, fd); throws "<op>: bad file descriptor".
  OpenFile& handle(Rank r, int fd, const char* op);
  /// Slot of rank `r` in f.ranks for a new descriptor opened at `now`:
  /// shared with r's other descriptors on the file, else a fresh one.
  std::uint32_t attach(File& f, Rank r, SimTime now);
  /// Release one descriptor's hold on `slot` of f.ranks (the descriptor
  /// is already gone from open_files_); the last one frees the slot.
  void detach(File& f, Rank r, std::uint32_t slot);
  std::shared_ptr<File> lookup(const std::string& path) const;
  /// Slot for `path` in the id-indexed file vector, interning on demand.
  /// A null slot means the name is known but no file currently exists
  /// (never created, unlinked, or renamed away).
  std::shared_ptr<File>& slot(const std::string& path);
  /// Injected errno for one operation (0 when no injector / no fault).
  int inject(fault::OpClass c, Rank r, SimTime now);
  /// Admission of one failable metadata op: an injected fault, then the
  /// backend's routing; counts the metadata round trip once admitted.
  int admit(fault::OpClass c, Rank r, std::string_view path, SimTime now);
  SimDuration charge_locks(File& f, std::uint32_t slot, Extent ext,
                           bool exclusive);
  /// Amortized extent-compaction trigger (cfg_.compaction); called at
  /// commit points and after writes.
  void maybe_compact(File& f, SimTime now);

  /// Namespace: every path ever seen is interned once; live files occupy
  /// the matching slot of the dense id-indexed vector and directories are
  /// a set of interned ids. No string-keyed map on the simulation path.
  trace::PathTable names_;
  std::vector<std::shared_ptr<File>> files_;
  std::set<FileId> dirs_;
  /// Open descriptors by (rank, fd); fds count up from 3 per rank and
  /// are never reused (next_fd_[r] is rank r's next one).
  FdTable<OpenFile> open_files_;
  std::vector<int> next_fd_;
  VersionTag next_version_ = 1;
  LockStats locks_;
  CompactionStats compaction_;
  obs::Run* orun_ = nullptr;  ///< not owned; nullptr = obs off
};

}  // namespace pfsem::vfs
