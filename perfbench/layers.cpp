// pfsem_layers: the benchmark's layer tracer.
//
// Reproduces one benchmark workload by calling the public library
// functions the pfsem CLI calls, in the order it calls them, and times
// each call from outside the library:
//
//   apps   Harness construction, AppInfo::run (+ sim, mpi, iolib), the
//          collector's finish, Harness destruction
//   vfs    every vfs::FileSystem call, through TimedFs, a decorator
//          around vfs::Pfs or vfs::PfsCluster handed to the Harness
//   trace  spill encode (TimedSink around trace::ChunkWriter), chunk
//          decode (timed per batch of kBatch records), Collector::take
//   core   stream feed, finish and report assembly, or the materialized
//          reconstruct / overlap / conflict / pattern / happens-before /
//          advise / metadata calls
//
// Its standard output is the CLI's, byte for byte (run.py checks this),
// so the per-layer figures describe the program the CLI runs.
//
// Usage:
//   pfsem_layers info
//   pfsem_layers setup  WORKLOAD
//   pfsem_layers traced WORKLOAD --metrics FILE
// where WORKLOAD is
//   --app NAME --ranks N --seed S --threads T (--stream | --run)
//   [--mds M --ost O]
//
// `setup` times the apps::Harness constructor alone, in a process that
// does nothing else, and prints the seconds. `traced` writes the layer
// metrics to FILE as one JSON object.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pfsem/apps/harness.hpp"
#include "pfsem/apps/registry.hpp"
#include "pfsem/core/advisor.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/happens_before.hpp"
#include "pfsem/core/metadata_census.hpp"
#include "pfsem/core/metadata_conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/overlap.hpp"
#include "pfsem/core/pattern.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/core/stream_analyze.hpp"
#include "pfsem/core/window.hpp"
#include "pfsem/exec/pool.hpp"
#include "pfsem/trace/spill.hpp"
#include "pfsem/util/table.hpp"
#include "pfsem/vfs/cluster.hpp"
#include "pfsem/vfs/filesystem.hpp"
#include "pfsem/vfs/pfs.hpp"

namespace {

using namespace pfsem;
using Clock = std::chrono::steady_clock;

/// Records decoded per timed batch: timing each record would cost more
/// than decoding it.
constexpr std::size_t kBatch = 4096;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Current resident set, MB (from /proc/self/statm).
double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Process high-water resident set so far, MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// One workload, as the CLI flags describe it.
struct Workload {
  std::string app;
  int ranks = 64;
  std::uint64_t seed = 42;
  int threads = 1;
  bool stream = false;
  bool cluster = false;
  int mds = 1;
  int ost = 1;
};

/// The AppConfig the CLI builds for these flags (pfsem_cli make_setup).
apps::AppConfig make_config(const Workload& w) {
  apps::AppConfig cfg;
  cfg.nranks = w.ranks;
  cfg.ranks_per_node = std::max(1, w.ranks / 8);
  cfg.seed = w.seed;
  return cfg;
}

vfs::ClusterConfig make_cluster_config(const Workload& w) {
  vfs::ClusterConfig ccfg;
  ccfg.mds_count = w.mds;
  ccfg.ost_count = w.ost;
  return ccfg;
}

std::unique_ptr<vfs::FileSystem> make_backend(const Workload& w) {
  if (w.cluster) return std::make_unique<vfs::PfsCluster>(make_cluster_config(w));
  return std::make_unique<vfs::Pfs>(vfs::PfsConfig{});
}

/// Wall time and call count of one operation class.
struct OpStat {
  std::uint64_t calls = 0;
  double s = 0;
};

enum OpClass { kOpen, kClose, kWrite, kRead, kFsync, kMeta, kOpClasses };
constexpr const char* kOpClassNames[kOpClasses] = {"open",  "close", "write",
                                                   "read",  "fsync", "meta"};

/// vfs::FileSystem decorator: forwards every call to the backend and
/// accumulates its wall time per operation class.
class TimedFs final : public vfs::FileSystem {
 public:
  explicit TimedFs(std::unique_ptr<vfs::FileSystem> inner)
      : inner_(std::move(inner)) {}

  vfs::OpenResult open(Rank r, const std::string& path, int flags,
                       SimTime now) override {
    return timed(kOpen, [&] { return inner_->open(r, path, flags, now); });
  }
  vfs::MetaResult close(Rank r, int fd, SimTime now) override {
    return timed(kClose, [&] { return inner_->close(r, fd, now); });
  }
  vfs::WriteResult write(Rank r, int fd, std::uint64_t count,
                         SimTime now) override {
    write_bytes_ += count;
    return timed(kWrite, [&] { return inner_->write(r, fd, count, now); });
  }
  vfs::WriteResult pwrite(Rank r, int fd, Offset off, std::uint64_t count,
                          SimTime now) override {
    write_bytes_ += count;
    return timed(kWrite,
                 [&] { return inner_->pwrite(r, fd, off, count, now); });
  }
  vfs::ReadResult read(Rank r, int fd, std::uint64_t count,
                       SimTime now) override {
    auto res = timed(kRead, [&] { return inner_->read(r, fd, count, now); });
    read_bytes_ += res.bytes;
    return res;
  }
  vfs::ReadResult pread(Rank r, int fd, Offset off, std::uint64_t count,
                        SimTime now) override {
    auto res =
        timed(kRead, [&] { return inner_->pread(r, fd, off, count, now); });
    read_bytes_ += res.bytes;
    return res;
  }
  vfs::MetaResult lseek(Rank r, int fd, std::int64_t delta, int whence,
                        SimTime now) override {
    return timed(kMeta,
                 [&] { return inner_->lseek(r, fd, delta, whence, now); });
  }
  vfs::MetaResult fsync(Rank r, int fd, SimTime now) override {
    return timed(kFsync, [&] { return inner_->fsync(r, fd, now); });
  }
  vfs::MetaResult ftruncate(Rank r, int fd, Offset length,
                            SimTime now) override {
    return timed(kMeta,
                 [&] { return inner_->ftruncate(r, fd, length, now); });
  }
  vfs::MetaResult stat(const std::string& path, SimTime now) override {
    return timed(kMeta, [&] { return inner_->stat(path, now); });
  }
  vfs::MetaResult access(const std::string& path, SimTime now) override {
    return timed(kMeta, [&] { return inner_->access(path, now); });
  }
  vfs::MetaResult unlink(const std::string& path, SimTime now) override {
    return timed(kMeta, [&] { return inner_->unlink(path, now); });
  }
  vfs::MetaResult mkdir(const std::string& path, SimTime now) override {
    return timed(kMeta, [&] { return inner_->mkdir(path, now); });
  }
  vfs::MetaResult rename(const std::string& from, const std::string& to,
                         SimTime now) override {
    return timed(kMeta, [&] { return inner_->rename(from, to, now); });
  }
  void preload(const std::string& path, Offset size) override {
    const auto t0 = Clock::now();
    inner_->preload(path, size);
    stats_[kMeta].s += seconds_since(t0);
    ++stats_[kMeta].calls;
  }
  void set_fault_injector(fault::Injector* injector) override {
    inner_->set_fault_injector(injector);
  }
  std::vector<vfs::VersionTag> crash_rank(Rank r, SimTime now) override {
    return inner_->crash_rank(r, now);
  }
  [[nodiscard]] SimDuration meta_latency() const override {
    return inner_->meta_latency();
  }
  [[nodiscard]] vfs::CostSnapshot cost_snapshot() const override {
    return inner_->cost_snapshot();
  }

  [[nodiscard]] const OpStat& stat_of(OpClass c) const { return stats_[c]; }
  [[nodiscard]] double total_s() const {
    double s = 0;
    for (const OpStat& st : stats_) s += st.s;
    return s;
  }
  [[nodiscard]] std::uint64_t write_bytes() const { return write_bytes_; }
  [[nodiscard]] std::uint64_t read_bytes() const { return read_bytes_; }
  [[nodiscard]] std::uint64_t errors() const { return errors_; }

 private:
  // Trailing return type: the overrides above call this before the
  // compiler reaches its body.
  template <typename F>
  auto timed(OpClass c, F&& call) -> decltype(call()) {
    const auto t0 = Clock::now();
    auto res = call();
    stats_[c].s += seconds_since(t0);
    ++stats_[c].calls;
    if (res.err != 0) ++errors_;
    return res;
  }

  std::unique_ptr<vfs::FileSystem> inner_;
  OpStat stats_[kOpClasses];
  std::uint64_t write_bytes_ = 0;
  std::uint64_t read_bytes_ = 0;
  std::uint64_t errors_ = 0;
};

/// StreamSink decorator: times the chunk encode of every collector batch.
class TimedSink final : public trace::StreamSink {
 public:
  explicit TimedSink(trace::StreamSink& inner) : inner_(inner) {}

  void on_records(std::uint64_t base_seq,
                  std::span<const trace::Record> records) override {
    const auto t0 = Clock::now();
    inner_.on_records(base_seq, records);
    s_ += seconds_since(t0);
  }

  [[nodiscard]] double seconds() const { return s_; }

 private:
  trace::StreamSink& inner_;
  double s_ = 0;
};

/// Named metric values in output order.
class Metrics {
 public:
  void set(const std::string& name, double value) {
    for (auto& [n, v] : values_) {
      if (n == name) {
        v = value;
        return;
      }
    }
    values_.emplace_back(name, value);
  }
  [[nodiscard]] double get(const std::string& name) const {
    for (const auto& [n, v] : values_) {
      if (n == name) return v;
    }
    return 0;
  }
  void write_json(std::ostream& os) const {
    os << std::setprecision(17) << "{";
    for (std::size_t i = 0; i < values_.size(); ++i) {
      os << (i ? ", " : "") << "\"" << values_[i].first
         << "\": " << values_[i].second;
    }
    os << "}\n";
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Every per-layer metric, zero until a pipeline sets it; a workload
/// that never enters a layer reports that layer's figures as zero.
void declare_metrics(Metrics& m) {
  for (const char* n :
       {"apps.setup_s", "apps.capture_s", "apps.self_s", "apps.teardown_s",
        "apps.records", "apps.self_ns_per_record", "mpi.collectives",
        "mpi.p2p", "apps.peak_rss_mb"}) {
    m.set(n, 0);
  }
  for (const char* c : kOpClassNames) {
    m.set(std::string("vfs.") + c + ".calls", 0);
    m.set(std::string("vfs.") + c + ".s", 0);
  }
  for (const char* n :
       {"vfs.close.ns_per_call", "vfs.write.bytes", "vfs.read.bytes",
        "vfs.errors", "vfs.lock_revocations", "vfs.meta_rpcs", "vfs.ost_bytes",
        "trace.encode.s", "trace.spill_bytes", "trace.bytes_per_record",
        "trace.decode.s", "trace.decode.ns_per_record", "trace.take.s",
        "core.feed.s", "core.feed.ns_per_record", "core.finish.s",
        "core.report.s", "core.window.peak_live_files",
        "core.window.retired_frac", "core.peak_rss_mb", "core.reconstruct.s",
        "core.overlap.s", "core.overlap.pairs", "core.conflict.s",
        "core.conflicts", "core.pattern.s", "core.hb.build_s",
        "core.hb.rss_mb", "core.advise.s", "core.metadata.s",
        "exec.analysis_cpu_over_wall", "traced.wall_s", "traced.other_s"}) {
    m.set(n, 0);
  }
}

/// The layer self times; with traced.other_s they sum to traced.wall_s.
std::vector<std::string> self_time_metrics() {
  std::vector<std::string> names = {"apps.setup_s", "apps.self_s",
                                    "apps.teardown_s"};
  for (const char* c : kOpClassNames) names.push_back(std::string("vfs.") + c + ".s");
  for (const char* n :
       {"trace.encode.s", "trace.take.s", "trace.decode.s", "core.feed.s",
        "core.finish.s", "core.report.s", "core.reconstruct.s",
        "core.overlap.s", "core.conflict.s", "core.pattern.s",
        "core.hb.build_s", "core.advise.s", "core.metadata.s"}) {
    names.emplace_back(n);
  }
  return names;
}

/// The capture phase's figures, common to both pipelines.
void note_capture(Metrics& m, const TimedFs& fs, double capture_s,
                  double encode_s, double take_s, std::uint64_t records,
                  const trace::CommLog& comm) {
  for (int c = 0; c < kOpClasses; ++c) {
    const OpStat& st = fs.stat_of(static_cast<OpClass>(c));
    m.set(std::string("vfs.") + kOpClassNames[c] + ".calls",
          static_cast<double>(st.calls));
    m.set(std::string("vfs.") + kOpClassNames[c] + ".s", st.s);
  }
  const OpStat& close = fs.stat_of(kClose);
  m.set("vfs.close.ns_per_call",
        close.calls ? close.s * 1e9 / static_cast<double>(close.calls) : 0);
  m.set("vfs.write.bytes", static_cast<double>(fs.write_bytes()));
  m.set("vfs.read.bytes", static_cast<double>(fs.read_bytes()));
  m.set("vfs.errors", static_cast<double>(fs.errors()));
  const vfs::CostSnapshot cost = fs.cost_snapshot();
  m.set("vfs.lock_revocations", static_cast<double>(cost.lock_revocations));
  m.set("vfs.meta_rpcs", static_cast<double>(cost.meta_rpcs));
  m.set("vfs.ost_bytes", static_cast<double>(cost.ost_bytes));

  const double self_s = capture_s - fs.total_s() - encode_s - take_s;
  const double n = static_cast<double>(std::max<std::uint64_t>(records, 1));
  m.set("apps.capture_s", capture_s);
  m.set("apps.self_s", self_s);
  m.set("apps.records", static_cast<double>(records));
  m.set("apps.self_ns_per_record", self_s * 1e9 / n);
  m.set("mpi.collectives", static_cast<double>(comm.collectives.size()));
  m.set("mpi.p2p", static_cast<double>(comm.p2p.size()));
  m.set("apps.peak_rss_mb", peak_rss_mb());
}

/// `pfsem report <app> --stream` (windowed), layer by layer: the CLI's
/// spill_and_drain + stream_windowed_config + stream_report_config.
void traced_stream(const apps::AppInfo& info, const Workload& w, Metrics& m) {
  trace::SpillStore store(trace::SpillStore::kDefaultCeiling);
  trace::StreamMeta meta;
  double encode_s = 0;
  {
    trace::ChunkWriter writer(store, w.ranks);
    TimedSink sink(writer);
    apps::AppConfig cfg = make_config(w);
    cfg.stream_sink = &sink;
    auto owned = std::make_unique<TimedFs>(make_backend(w));
    TimedFs& fs = *owned;

    auto t0 = Clock::now();
    std::optional<apps::Harness> h;
    h.emplace(cfg, std::move(owned));
    m.set("apps.setup_s", seconds_since(t0));
    t0 = Clock::now();
    info.run(*h);
    meta = h->finish_stream();
    const double capture_s = seconds_since(t0);
    note_capture(m, fs, capture_s, sink.seconds(), 0, meta.records, meta.comm);
    t0 = Clock::now();
    h.reset();
    m.set("apps.teardown_s", seconds_since(t0));

    t0 = Clock::now();
    writer.finish(meta);
    encode_s = sink.seconds() + seconds_since(t0);
  }
  const std::uint64_t records = meta.records;
  const double n = static_cast<double>(std::max<std::uint64_t>(records, 1));
  m.set("trace.encode.s", encode_s);
  m.set("trace.spill_bytes", static_cast<double>(store.bytes()));
  m.set("trace.bytes_per_record", static_cast<double>(store.bytes()) / n);
  if (store.spilled()) {
    throw std::runtime_error(
        "the spill left memory; the workload assumes it stays in memory");
  }

  const double cpu0 = process_cpu_s();
  const auto analysis_t0 = Clock::now();
  double peak_mb = rss_mb();
  double decode_s = 0, feed_s = 0;
  auto t0 = Clock::now();
  const auto in = store.open_read();
  trace::ChunkReader reader(*in);
  decode_s += seconds_since(t0);

  core::StreamAnalyzer analyzer(meta.nranks, std::move(meta.paths),
                                std::move(meta.rank_posix_counts),
                                meta.file_op_counts);
  analyzer.enable_window({}, std::move(meta.file_posix_counts));
  std::vector<trace::Record> batch(kBatch);
  for (bool more = true; more;) {
    t0 = Clock::now();
    std::size_t got = 0;
    while (got < kBatch && (more = reader.next(batch[got]))) ++got;
    const auto t1 = Clock::now();
    for (std::size_t i = 0; i < got; ++i) analyzer.feed(batch[i]);
    const auto t2 = Clock::now();
    decode_s += std::chrono::duration<double>(t1 - t0).count();
    feed_s += std::chrono::duration<double>(t2 - t1).count();
    peak_mb = std::max(peak_mb, rss_mb());
  }
  t0 = Clock::now();
  (void)reader.read_trailer();  // validates the framing end to end
  decode_s += seconds_since(t0);

  const std::uint64_t retired_mid_stream = analyzer.retired_accesses();
  t0 = Clock::now();
  auto res = analyzer.finish_windowed();
  m.set("core.finish.s", seconds_since(t0));
  peak_mb = std::max(peak_mb, rss_mb());

  t0 = Clock::now();
  const core::RunReport rep = core::assemble_windowed_report(
      std::move(res.stats), res.records, res.nranks, res.summaries);
  core::print_report(rep, std::cout);
  std::cout.flush();
  m.set("core.report.s", seconds_since(t0));
  peak_mb = std::max(peak_mb, rss_mb());

  const double analysis_wall = seconds_since(analysis_t0);
  std::uint64_t conflicts = 0;
  for (const auto& [path, f] : rep.files) conflicts += f.session_conflicts;
  m.set("trace.decode.s", decode_s);
  m.set("trace.decode.ns_per_record", decode_s * 1e9 / n);
  m.set("core.feed.s", feed_s);
  m.set("core.feed.ns_per_record", feed_s * 1e9 / n);
  m.set("core.window.peak_live_files",
        static_cast<double>(res.peak_live_files));
  m.set("core.window.retired_frac",
        res.retired_accesses
            ? static_cast<double>(retired_mid_stream) /
                  static_cast<double>(res.retired_accesses)
            : 0);
  m.set("core.conflicts", static_cast<double>(conflicts));
  m.set("core.peak_rss_mb", peak_mb);
  m.set("exec.analysis_cpu_over_wall",
        (process_cpu_s() - cpu0) / std::max(analysis_wall, 1e-9));
}

/// `pfsem run <app>`, layer by layer: the CLI's obtain + print_report.
void traced_run(const apps::AppInfo& info, const Workload& w, Metrics& m) {
  trace::TraceBundle bundle;
  {
    auto owned = std::make_unique<TimedFs>(make_backend(w));
    TimedFs& fs = *owned;
    auto t0 = Clock::now();
    std::optional<apps::Harness> h;
    h.emplace(make_config(w), std::move(owned));
    m.set("apps.setup_s", seconds_since(t0));
    t0 = Clock::now();
    info.run(*h);
    const auto t_take = Clock::now();
    bundle = h->finish();
    const double take_s = seconds_since(t_take);
    m.set("trace.take.s", take_s);
    note_capture(m, fs, seconds_since(t0), 0, take_s, bundle.records.size(),
                 bundle.comm);
    t0 = Clock::now();
    h.reset();
    m.set("apps.teardown_s", seconds_since(t0));
  }

  const int threads = w.threads;
  const double cpu0 = process_cpu_s();
  const auto analysis_t0 = Clock::now();
  double peak_mb = rss_mb();
  auto timed = [&](const char* name, auto&& call) {
    const auto t0 = Clock::now();
    auto out = call();
    m.set(name, m.get(name) + seconds_since(t0));
    peak_mb = std::max(peak_mb, rss_mb());
    return out;
  };

  const auto log = timed("core.reconstruct.s",
                         [&] { return core::reconstruct_accesses(bundle); });
  const auto pairs = timed("core.overlap.s", [&] {
    return core::detect_file_overlaps(log, {}, threads);
  });
  const auto report = timed("core.conflict.s", [&] {
    return core::detect_conflicts(log, pairs, {.threads = threads});
  });
  const auto pattern = timed("core.pattern.s", [&] {
    return core::classify_high_level(log, bundle.nranks);
  });
  const auto local = timed("core.pattern.s",
                           [&] { return core::local_pattern(log, threads); });
  const auto global = timed("core.pattern.s",
                            [&] { return core::global_pattern(log, threads); });
  const auto census = timed("core.pattern.s",
                            [&] { return core::census_metadata(bundle); });
  const double rss_before_hb = rss_mb();
  std::optional<core::HappensBefore> hb;
  timed("core.hb.build_s", [&] {
    hb.emplace(bundle.comm, bundle.nranks);
    return 0;
  });
  m.set("core.hb.rss_mb", rss_mb() - rss_before_hb);
  const auto advice = timed(
      "core.advise.s", [&] { return core::advise(report, &*hb, threads); });
  const auto meta = timed("core.metadata.s", [&] {
    return core::detect_metadata_dependencies(bundle, &*hb,
                                              {.threads = threads});
  });

  // The CLI's print_report (pfsem_cli.cpp), line for line.
  timed("core.report.s", [&] {
    std::cout << "ranks: " << bundle.nranks
              << "   records: " << bundle.records.size()
              << "   files: " << log.file_count() << "\n";
    std::cout << "pattern: " << pattern.xy << " "
              << core::to_string(pattern.layout) << " (dominant "
              << pattern.dominant_file << ")\n";
    std::cout << "transitions  local: " << fmt_pct(local.frac_consecutive())
              << " consecutive / " << fmt_pct(local.frac_random())
              << " random   global: " << fmt_pct(global.frac_consecutive())
              << " consecutive / " << fmt_pct(global.frac_random())
              << " random\n";
    auto classes = [](const core::ConflictMatrix& cm) {
      std::string s;
      if (cm.waw_s) s += "WAW-S ";
      if (cm.waw_d) s += "WAW-D ";
      if (cm.raw_s) s += "RAW-S ";
      if (cm.raw_d) s += "RAW-D ";
      return s.empty() ? std::string("none") : s;
    };
    std::cout << "conflicts   session: " << classes(report.session)
              << "  commit: " << classes(report.commit) << "\n";
    std::cout << "data races: " << (advice.race_free ? "none" : "PRESENT")
              << "\n";
    std::cout << "metadata deps: " << meta.cross_process << " cross-process, "
              << meta.unsynchronized << " not MPI-ordered\n";
    std::cout << "metadata ops used: " << census.distinct_ops() << "\n";
    std::cout << "verdict: weakest safe model = "
              << vfs::to_string(advice.weakest) << "\n  " << advice.rationale
              << "\n";
    std::cout.flush();
    return 0;
  });

  const double analysis_wall = seconds_since(analysis_t0);
  std::size_t npairs = 0;
  for (const auto& file_pairs : pairs) npairs += file_pairs.size();
  m.set("core.overlap.pairs", static_cast<double>(npairs));
  m.set("core.conflicts", static_cast<double>(report.conflicts.size()));
  m.set("core.peak_rss_mb", peak_mb);
  m.set("exec.analysis_cpu_over_wall",
        (process_cpu_s() - cpu0) / std::max(analysis_wall, 1e-9));
}

/// Time the apps::Harness constructor the CLI's run would execute.
double setup_seconds(const Workload& w) {
  trace::SpillStore store(trace::SpillStore::kDefaultCeiling);
  trace::ChunkWriter writer(store, w.ranks);
  apps::AppConfig cfg = make_config(w);
  if (w.stream) cfg.stream_sink = &writer;
  const auto t0 = Clock::now();
  std::optional<apps::Harness> h;
  if (w.cluster) {
    h.emplace(cfg, make_cluster_config(w));
  } else {
    h.emplace(cfg, vfs::PfsConfig{});
  }
  return seconds_since(t0);
}

Workload parse_workload(int argc, char** argv, std::string* metrics_path) {
  Workload w;
  bool mode_set = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--app") {
      w.app = next();
    } else if (a == "--ranks") {
      w.ranks = std::stoi(next());
    } else if (a == "--seed") {
      w.seed = std::stoull(next());
    } else if (a == "--threads") {
      w.threads = std::stoi(next());
    } else if (a == "--stream" || a == "--run") {
      w.stream = a == "--stream";
      mode_set = true;
    } else if (a == "--mds") {
      w.mds = std::stoi(next());
      w.cluster = true;
    } else if (a == "--ost") {
      w.ost = std::stoi(next());
      w.cluster = true;
    } else if (a == "--metrics" && metrics_path != nullptr) {
      *metrics_path = next();
    } else {
      throw std::runtime_error("unknown option " + a);
    }
  }
  if (w.app.empty() || !mode_set || w.ranks < 1 || w.threads < 1) {
    throw std::runtime_error(
        "need --app NAME, --ranks N >= 1, --threads T >= 1 and one of "
        "--stream / --run");
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  try {
    const std::string cmd = argc >= 2 ? argv[1] : "";
    if (cmd == "info") {
      std::cout << "{\"hardware_threads\": " << exec::hardware_threads()
                << ", \"compiler\": \"" << PFSEM_BENCH_COMPILER
                << "\", \"build_type\": \"" << PFSEM_BENCH_BUILD_TYPE
                << "\"}\n";
      return 0;
    }
    if (cmd == "setup") {
      const Workload w = parse_workload(argc, argv, nullptr);
      if (apps::find_app(w.app) == nullptr) {
        throw std::runtime_error("unknown config " + w.app);
      }
      std::cout << std::setprecision(17) << setup_seconds(w) << "\n";
      return 0;
    }
    if (cmd == "traced") {
      std::string metrics_path;
      const Workload w = parse_workload(argc, argv, &metrics_path);
      if (metrics_path.empty()) throw std::runtime_error("need --metrics FILE");
      const apps::AppInfo* info = apps::find_app(w.app);
      if (info == nullptr) throw std::runtime_error("unknown config " + w.app);
      Metrics m;
      declare_metrics(m);
      if (w.stream) {
        traced_stream(*info, w, m);
      } else {
        traced_run(*info, w, m);
      }
      const double wall = seconds_since(start);
      double layers = 0;
      for (const std::string& n : self_time_metrics()) layers += m.get(n);
      m.set("traced.wall_s", wall);
      m.set("traced.other_s", wall - layers);
      std::ofstream os(metrics_path);
      m.write_json(os);
      if (!os) throw std::runtime_error("cannot write " + metrics_path);
      return 0;
    }
    std::cerr << "usage: pfsem_layers info | setup WORKLOAD | traced WORKLOAD "
                 "--metrics FILE\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "pfsem_layers: " << e.what() << "\n";
    return 1;
  }
}
