#include "pfsem/iolib/adios_lite.hpp"

#include <algorithm>

#include "pfsem/util/error.hpp"

namespace pfsem::iolib {

struct AdiosFile {
  std::string dir;        // "<name>.bp"
  FileId file = kNoFile;  // interned id of `dir`
  mpi::Group group;
  std::vector<Rank> aggregators;
  /// Per-member state, indexed by group position (World::group_pos).
  std::vector<int> data_fds;  // aggregator's subfile fd; -1 = not one
  int md_fd = -1;             // rank 0: md.0 log
  int idx_fd = -1;            // rank 0: md.idx index
  std::vector<std::uint64_t> staged;
  int open_count = 0;
};

AdiosLite::AdiosLite(IoContext ctx, AdiosOptions opt)
    : ctx_(ctx), opt_(opt), posix_(ctx, trace::Layer::Adios) {
  require(ctx_.valid(), "AdiosLite needs a fully-wired IoContext");
  require(opt_.aggregators > 0, "need at least one aggregator");
}

AdiosLite::~AdiosLite() = default;

void AdiosLite::emit(Rank r, trace::Func func, SimTime t0, std::uint64_t count,
                     FileId file) {
  trace::Record rec;
  rec.tstart = t0;
  rec.tend = ctx_.engine->now();
  rec.rank = r;
  rec.layer = trace::Layer::Adios;
  rec.origin = trace::Layer::App;
  rec.func = func;
  rec.count = count;
  rec.file = file;
  ctx_.collector->emit(rec);
}

sim::Task<AdiosFile*> AdiosLite::open(Rank r, const std::string& name,
                                      const mpi::Group& group) {
  const SimTime t0 = ctx_.engine->now();
  const std::string dir = name + ".bp";
  const FileId file = ctx_.collector->intern(dir);
  auto& slot = handles_[file];
  if (!slot) {
    slot = std::make_unique<AdiosFile>();
    slot->dir = dir;
    slot->file = file;
    slot->group = group;
    slot->data_fds.assign(group.size(), -1);
    slot->staged.assign(group.size(), 0);
    const auto naggr =
        std::min<std::size_t>(static_cast<std::size_t>(opt_.aggregators),
                              group.size());
    for (std::size_t i = 0; i < naggr; ++i) {
      slot->aggregators.push_back(group[i * group.size() / naggr]);
    }
  }
  AdiosFile* f = slot.get();
  ++f->open_count;
  co_await posix_.getcwd(r);
  const Rank leader = group.front();
  if (r == leader) {
    co_await posix_.mkdir(r, dir);
    // Stale output from a previous run would confuse the reader index.
    co_await posix_.unlink(r, dir + "/md.idx");
  }
  co_await ctx_.world->barrier(r, group);
  const auto agg_it =
      std::find(f->aggregators.begin(), f->aggregators.end(), r);
  if (agg_it != f->aggregators.end()) {
    const auto sub = static_cast<int>(agg_it - f->aggregators.begin());
    f->data_fds[ctx_.world->group_pos(f->group, r)] = co_await posix_.open(
        r, dir + "/data." + std::to_string(sub),
        trace::kCreate | trace::kTrunc | trace::kWrOnly);
  }
  if (r == leader) {
    f->md_fd = co_await posix_.open(r, dir + "/md.0",
                                    trace::kCreate | trace::kTrunc | trace::kWrOnly);
    f->idx_fd = co_await posix_.open(
        r, dir + "/md.idx", trace::kCreate | trace::kTrunc | trace::kRdWr);
  }
  co_await ctx_.world->barrier(r, group);
  emit(r, trace::Func::adios_open, t0, 0, file);
  co_return f;
}

sim::Task<void> AdiosLite::put(Rank r, AdiosFile* f, std::uint64_t bytes) {
  const SimTime t0 = ctx_.engine->now();
  f->staged[ctx_.world->group_pos(f->group, r)] += bytes;
  co_await ctx_.engine->delay(500);  // buffer copy
  emit(r, trace::Func::adios_put, t0, bytes, f->file);
}

sim::Task<void> AdiosLite::end_step(Rank r, AdiosFile* f) {
  const SimTime t0 = ctx_.engine->now();
  // Ranks ship staged data to their aggregator; model as a barrier plus
  // the aggregator writing the aggregate sequentially (append).
  co_await ctx_.world->barrier(r, f->group);
  const std::size_t me = ctx_.world->group_pos(f->group, r);
  if (f->data_fds[me] >= 0) {
    // This aggregator serves group.size()/naggr ranks.
    const std::uint64_t total =
        f->staged[me] * (f->group.size() / f->aggregators.size());
    if (total > 0) co_await posix_.write(r, f->data_fds[me], total);
  }
  if (r == f->group.front()) {
    co_await posix_.write(r, f->md_fd, 256);
    // Single-byte in-place overwrite of the index: the LAMMPS-ADIOS WAW-S.
    co_await posix_.pwrite(r, f->idx_fd, 0, 1);
    co_await posix_.write(r, f->idx_fd, 64);
  }
  f->staged[me] = 0;
  co_await ctx_.world->barrier(r, f->group);
  emit(r, trace::Func::adios_end_step, t0, 0, f->file);
}

sim::Task<void> AdiosLite::close(Rank r, AdiosFile* f) {
  const SimTime t0 = ctx_.engine->now();
  co_await ctx_.world->barrier(r, f->group);
  if (const int fd = f->data_fds[ctx_.world->group_pos(f->group, r)];
      fd >= 0) {
    co_await posix_.close(r, fd);
  }
  if (r == f->group.front()) {
    co_await posix_.close(r, f->md_fd);
    co_await posix_.close(r, f->idx_fd);
  }
  const FileId file = f->file;
  if (--f->open_count == 0) handles_.erase(file);
  emit(r, trace::Func::adios_close, t0, 0, file);
}

}  // namespace pfsem::iolib
