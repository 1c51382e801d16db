#include "pfsem/vfs/pfs_base.hpp"

#include <algorithm>

#include "pfsem/fault/injector.hpp"
#include "pfsem/obs/obs.hpp"
#include "pfsem/trace/record.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::vfs {

const char* to_string(ConsistencyModel m) {
  switch (m) {
    case ConsistencyModel::Strong: return "strong";
    case ConsistencyModel::Commit: return "commit";
    case ConsistencyModel::Session: return "session";
    case ConsistencyModel::Eventual: return "eventual";
  }
  return "?";
}

using detail::WriteRecord;

PfsBase::PfsBase(const PfsConfig& cfg, std::size_t osts) : cfg_(cfg) {
  dirs_.insert(names_.intern("/"));
  osts_.requests.assign(osts, 0);
  osts_.bytes.assign(osts, 0);
}
PfsBase::~PfsBase() = default;

// ----------------------------------------------------------------------
// backend hooks: the single-server defaults

int PfsBase::route(std::string_view, SimTime, bool) { return 0; }

int PfsBase::route_rename(std::string_view, std::string_view, SimTime) {
  return 0;
}

void PfsBase::degrade_read(std::vector<ReadExtent>&, Extent) {}

// ----------------------------------------------------------------------
// helpers

PfsBase::OpenFile& PfsBase::handle(Rank r, int fd, const char* op) {
  OpenFile* of = open_files_.find(r, fd);
  // The message is built only on failure: this runs on every data op.
  if (of == nullptr) require(false, std::string(op) + ": bad file descriptor");
  return *of;
}

std::uint32_t PfsBase::attach(File& f, Rank r, SimTime now) {
  const auto row = open_files_.row(r);
  const auto it = std::find_if(row.begin(), row.end(), [&](const auto& e) {
    return e.value.file.get() == &f;
  });
  const std::uint32_t slot = it != row.end() ? it->value.slot : f.add_rank(r);
  detail::RankState& rs = f.ranks[slot];
  ++rs.handles;
  rs.t_open = std::min(rs.t_open, now);
  return slot;
}

void PfsBase::detach(File& f, Rank r, std::uint32_t slot) {
  detail::RankState& rs = f.ranks[slot];
  if (--rs.handles > 0) {
    rs.t_open = kTimeNever;
    for (const auto& e : open_files_.row(r)) {
      if (e.value.file.get() == &f) {
        rs.t_open = std::min(rs.t_open, e.value.t_open);
      }
    }
    return;
  }
  // Whatever the rank still owes (a lost commit, a crash) waits for its
  // next open of the file.
  f.orphans.insert(f.orphans.end(), rs.unpublished.begin(),
                   rs.unpublished.end());
  const std::size_t last = f.ranks.size() - 1;
  if (slot != last) {
    f.ranks[slot] = std::move(f.ranks[last]);
    for (auto& e : open_files_.row(f.ranks[slot].rank)) {
      if (e.value.file.get() == &f) e.value.slot = slot;
    }
  }
  f.ranks.pop_back();
  // Most files are closed for good once their last descriptor goes.
  if (f.ranks.empty()) std::vector<detail::RankState>().swap(f.ranks);
}

std::shared_ptr<PfsBase::File> PfsBase::lookup(const std::string& path) const {
  const FileId id = names_.find(path);
  return id == kNoFile || id >= files_.size() ? nullptr : files_[id];
}

std::shared_ptr<PfsBase::File>& PfsBase::slot(const std::string& path) {
  const FileId id = names_.intern(path);
  if (id >= files_.size()) files_.resize(id + 1);
  return files_[id];
}

int PfsBase::inject(fault::OpClass c, Rank r, SimTime now) {
  if (injector_ == nullptr) return 0;
  return injector_->on_op(c, r, now);
}

int PfsBase::admit(fault::OpClass c, Rank r, std::string_view path,
                   SimTime now) {
  if (const int e = inject(c, r, now)) return e;
  if (const int e = route(path, now, /*can_fail=*/true)) return e;
  ++locks_.meta_ops;
  return 0;
}

// Lock cost model (strong semantics only).
SimDuration PfsBase::charge_locks(File& f, std::uint32_t slot, Extent ext,
                                  bool exclusive) {
  return detail::charge_locks(f, f.ranks[slot], ext, exclusive,
                              {cfg_.model, cfg_.lock_latency, cfg_.lock_block},
                              locks_);
}

void PfsBase::maybe_compact(File& f, SimTime now) {
  if (!cfg_.compaction || !detail::should_compact(f)) return;
  SimTime floor = kTimeNever;
  if (cfg_.model == ConsistencyModel::Session) {
    for (const auto& rs : f.ranks) floor = std::min(floor, rs.t_open);
  }
  const std::size_t folded = detail::compact_file(f, env(), now, floor);
  if (folded > 0) {
    compaction_.folded_writes += folded;
    ++compaction_.passes;
    if (orun_ != nullptr && orun_->tracing()) {
      orun_->tracer.counter(
          {obs::kPidVfs, 0}, "vfs.compacted_writes", now,
          static_cast<std::int64_t>(compaction_.folded_writes));
    }
  }
}

void PfsBase::set_fault_injector(fault::Injector* injector) {
  injector_ = injector;
}

// ----------------------------------------------------------------------
// open / close

OpenResult PfsBase::open(Rank r, const std::string& path, int flags,
                         SimTime now) {
  require(r >= 0, "open: bad rank");
  if (const int e = admit(fault::OpClass::Meta, r, path, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  auto f = lookup(path);
  if (!f) {
    if (!(flags & trace::kCreate)) return {-1, cfg_.meta_latency};
    f = std::make_shared<File>();
    f->path = path;
    slot(path) = f;
  }
  if (flags & trace::kTrunc) {
    // Truncating would rewrite a laminated file; it stays read-only.
    if (f->laminated) return {-1, cfg_.meta_latency, fault::kErofs};
    f->writes.clear();
    f->write_index.clear();
    f->clear_pending();
    f->base.clear();
    f->base_max_end = 0;
    f->compact_watermark = 0;
    f->size = 0;
  }
  const auto ri = static_cast<std::size_t>(r);
  if (ri >= next_fd_.size()) next_fd_.resize(ri + 1, 3);
  const int fd = next_fd_[ri]++;
  const std::uint32_t slot = attach(*f, r, now);
  open_files_.put(r, fd, OpenFile{std::move(f), flags, 0, now, slot});
  return {fd, cfg_.meta_latency};
}

MetaResult PfsBase::close(Rank r, int fd, SimTime now) {
  // Pin the file: if it was unlinked while open, this fd holds the last
  // reference and erase() below would free it.
  const OpenFile& of = handle(r, fd, "close");
  std::shared_ptr<File> pin = of.file;
  const std::uint32_t slot = of.slot;
  File& f = *pin;
  // close is both a commit (paper footnote 2) and the session publish
  // point; it cannot surface an errno (the facade ignores it), so a dead
  // shard with a standby promotes silently. With no replica left the
  // commit/publish metadata update is *lost* — the fd still closes.
  const int err = route(f.path, now, /*can_fail=*/false);
  detail::RankState& rs = f.ranks[slot];
  if (err == 0) detail::publish_writes(f, rs, now);
  // Release this rank's locks (only the strong model takes any).
  detail::release_locks(f, rs);
  open_files_.erase(r, fd);
  detach(f, r, slot);
  maybe_compact(f, now);
  ++locks_.meta_ops;
  return {0, cfg_.meta_latency, err};
}

// ----------------------------------------------------------------------
// data ops

WriteResult PfsBase::write(Rank r, int fd, std::uint64_t count, SimTime now) {
  OpenFile& of = handle(r, fd, "write");
  const Offset off = (of.flags & trace::kAppend) ? of.file->size : of.offset;
  WriteResult res = pwrite(r, fd, off, count, now);
  if (res.err == 0) of.offset = off + count;  // a failed attempt wrote nothing
  return res;
}

WriteResult PfsBase::pwrite(Rank r, int fd, Offset off, std::uint64_t count,
                            SimTime now) {
  const OpenFile& of = handle(r, fd, "pwrite");
  File& f = *of.file;
  if (f.laminated) {
    // Read-only forever; EROFS is permanent, so retries never absorb it.
    return {0, off, cfg_.data_latency, fault::kErofs};
  }
  // Inject before allocating the version tag: a failed attempt writes
  // nothing, so a retried run consumes the exact same tags as a fault-free
  // one (the retry-absorption property the tests assert). Writes go
  // straight to the data servers with the open handle — no metadata
  // routing — and succeed even onto a down OST (client write-behind; the
  // data replays at restart, until which reads of those stripes return
  // holes).
  if (const int e = inject(fault::OpClass::Write, r, now)) {
    return {0, off, cfg_.data_latency, e};
  }
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
  f.index_write(static_cast<std::uint32_t>(f.writes.size() - 1),
                static_cast<int>(of.slot));
  f.size = std::max(f.size, w.ext.end);
  maybe_compact(f, now);
  if (cfg_.model == ConsistencyModel::Eventual && injector_ != nullptr &&
      injector_->visibility_extra(now) > 0) {
    injector_->note_delayed_write();
  }
  SimDuration cost = cfg_.data_latency + charge_transfer(w.ext, now);
  cost += charge_locks(f, of.slot, w.ext, /*exclusive=*/true);
  return {w.id, off, cost};
}

ReadResult PfsBase::read(Rank r, int fd, std::uint64_t count, SimTime now) {
  OpenFile& of = handle(r, fd, "read");
  ReadResult res = pread(r, fd, of.offset, count, now);
  of.offset += res.bytes;
  return res;
}

ReadResult PfsBase::pread(Rank r, int fd, Offset off, std::uint64_t count,
                          SimTime now) {
  OpenFile& of = handle(r, fd, "pread");
  File& f = *of.file;
  ReadResult res;
  res.offset = off;
  if (const int e = inject(fault::OpClass::Read, r, now)) {
    res.err = e;
    res.cost = cfg_.data_latency;
    return res;
  }
  res.bytes = off >= f.size ? 0 : std::min<std::uint64_t>(count, f.size - off);
  if (res.bytes > 0) {
    res.extents =
        detail::resolve_view(f, env(), r, now, of.t_open, off, res.bytes);
    // The cost is still charged in full for a degraded read — the client
    // waits out the request either way.
    degrade_read(res.extents, {off, off + res.bytes});
  }
  res.cost = cfg_.data_latency + charge_transfer({off, off + res.bytes}, now);
  res.cost +=
      charge_locks(f, of.slot, {off, off + res.bytes}, /*exclusive=*/false);
  return res;
}

MetaResult PfsBase::lseek(Rank r, int fd, std::int64_t delta, int whence,
                          SimTime now) {
  (void)now;
  OpenFile& of = handle(r, fd, "lseek");
  std::int64_t base = 0;
  switch (whence) {
    case trace::kSeekSet: base = 0; break;
    case trace::kSeekCur: base = static_cast<std::int64_t>(of.offset); break;
    case trace::kSeekEnd: base = static_cast<std::int64_t>(of.file->size); break;
    default: require(false, "lseek: bad whence");
  }
  const std::int64_t pos = base + delta;
  if (pos < 0) return {-1, 0};
  of.offset = static_cast<Offset>(pos);
  return {pos, 0};
}

MetaResult PfsBase::fsync(Rank r, int fd, SimTime now) {
  const OpenFile& of = handle(r, fd, "fsync");
  File& f = *of.file;
  if (const int e = admit(fault::OpClass::Sync, r, f.path, now)) {
    return {-1, cfg_.meta_latency, e};  // nothing committed this attempt
  }
  detail::commit_writes(f, f.ranks[of.slot], now);
  maybe_compact(f, now);
  return {0, cfg_.meta_latency};
}

MetaResult PfsBase::laminate(const std::string& path, SimTime now) {
  auto f = lookup(path);
  if (!f) return {-1, cfg_.meta_latency};
  // A commit point: with no metadata replica left the lamination is lost.
  const int err = route(path, now, /*can_fail=*/false);
  if (err == 0) {
    for (auto& w : f->writes) {
      if (w.t_commit == kTimeNever) w.t_commit = now;
      if (w.t_publish == kTimeNever) w.t_publish = now;
    }
    f->clear_pending();
    f->laminated = true;
    maybe_compact(*f, now);
  }
  ++locks_.meta_ops;
  return {err == 0 ? 0 : -1, cfg_.meta_latency, err};
}

MetaResult PfsBase::ftruncate(Rank r, int fd, Offset length, SimTime now) {
  File& f = *handle(r, fd, "ftruncate").file;
  // Read-only forever, as in pwrite: EROFS is permanent.
  if (f.laminated) return {-1, cfg_.meta_latency, fault::kErofs};
  if (const int e = admit(fault::OpClass::Meta, r, f.path, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  if (length < f.size) {
    // Clip recorded writes so re-grown regions read as holes, like a real
    // zero-filling truncate.
    std::erase_if(f.writes,
                  [&](const WriteRecord& w) { return w.ext.begin >= length; });
    for (auto& w : f.writes) w.ext.end = std::min(w.ext.end, length);
    f.rebuild_index();
    detail::truncate_base(f, length);
  }
  f.size = length;
  return {0, cfg_.meta_latency};
}

// ----------------------------------------------------------------------
// namespace ops

// Path-based metadata ops carry no rank; injected faults target kNoRank
// (transient faults apply to every rank anyway — only crash filtering is
// per-rank, and that happens in the facade, which knows the caller).

MetaResult PfsBase::stat(const std::string& path, SimTime now) {
  if (const int e = admit(fault::OpClass::Meta, kNoRank, path, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  auto f = lookup(path);
  if (f) return {static_cast<std::int64_t>(f->size), cfg_.meta_latency};
  if (dirs_.contains(names_.find(path))) return {0, cfg_.meta_latency};
  return {-1, cfg_.meta_latency};
}

MetaResult PfsBase::access(const std::string& path, SimTime now) {
  if (const int e = admit(fault::OpClass::Meta, kNoRank, path, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  return {lookup(path) || dirs_.contains(names_.find(path)) ? 0 : -1,
          cfg_.meta_latency};
}

MetaResult PfsBase::unlink(const std::string& path, SimTime now) {
  if (const int e = admit(fault::OpClass::Meta, kNoRank, path, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  auto f = lookup(path);
  if (!f) return {-1, cfg_.meta_latency};
  slot(path).reset();
  return {0, cfg_.meta_latency};
}

MetaResult PfsBase::mkdir(const std::string& path, SimTime now) {
  if (const int e = admit(fault::OpClass::Meta, kNoRank, path, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  return {dirs_.insert(names_.intern(path)).second ? 0 : -1,
          cfg_.meta_latency};
}

MetaResult PfsBase::rename(const std::string& from, const std::string& to,
                           SimTime now) {
  if (const int e = inject(fault::OpClass::Meta, kNoRank, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  if (const int e = route_rename(from, to, now)) {
    return {-1, cfg_.meta_latency, e};
  }
  ++locks_.meta_ops;
  auto f = lookup(from);
  if (!f) return {-1, cfg_.meta_latency};
  slot(from).reset();
  f->path = to;
  slot(to) = f;
  return {0, cfg_.meta_latency};
}

// ----------------------------------------------------------------------
// crash, preload & introspection

std::vector<VersionTag> PfsBase::crash_rank(Rank r, SimTime now) {
  std::vector<VersionTag> lost = detail::apply_rank_crash(files_, r, now, env());
  // Drop the rank's descriptors *without* the close-time commit/publish —
  // a crashed process never reaches close().
  std::vector<std::pair<std::shared_ptr<File>, std::uint32_t>> dropped;
  for (const auto& e : open_files_.row(r)) {
    dropped.emplace_back(e.value.file, e.value.slot);
  }
  open_files_.clear_row(r);
  for (const auto& [f, slot] : dropped) detach(*f, r, slot);
  return lost;
}

void PfsBase::preload(const std::string& path, Offset size) {
  require(!exists(path), "preload: file already exists: " + path);
  auto f = std::make_shared<File>();
  f->path = path;
  WriteRecord w;
  w.id = next_version_++;
  w.writer = kNoRank;
  w.ext = {0, size};
  w.t_write = -1;
  w.t_commit = -1;
  w.t_publish = -1;
  f->writes.push_back(w);
  f->index_write(0);
  f->size = size;
  slot(path) = std::move(f);
}

bool PfsBase::exists(const std::string& path) const {
  return lookup(path) != nullptr;
}

Offset PfsBase::file_size(const std::string& path) const {
  auto f = lookup(path);
  return f ? f->size : 0;
}

std::vector<std::string> PfsBase::list_files() const {
  std::vector<std::string> out;
  for (const auto& f : files_) {
    if (f) out.push_back(f->path);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ReadExtent> PfsBase::strong_view(const std::string& path,
                                             Offset off,
                                             std::uint64_t count) const {
  auto f = lookup(path);
  require(f != nullptr, "strong_view: no such file");
  return detail::strong_view_of(*f, off, count);
}

}  // namespace pfsem::vfs
