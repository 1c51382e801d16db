// Scaling harness for the parallel analysis pipeline. Unlike the
// google-benchmark binaries this one emits a machine-readable
// BENCH_perf.json so the numbers live in the repository:
//
//   bench_perf_scaling [--out FILE]    full sizes, write JSON (default
//                                      BENCH_perf.json in the cwd)
//   bench_perf_scaling --check         small sizes, assert correctness
//                                      (identical parallel/sequential
//                                      output always; speedup bounds only
//                                      where the host can express them)
//
// Experiments:
//   threads        detect_conflicts over a synthetic many-file log at
//                  1/2/4/8 threads — the work-stealing pool scaling curve;
//   sweep          sweep-line vs the paper's Algorithm-1 scan on an
//                  adversarial long-lived-read log — the single-thread
//                  algorithmic win;
//   reconstruction interned vs string-keyed record grouping;
//   capture        the capture path (heap scheduler + collector) on an
//                  adversarial delay(0)-heavy workload: seconds and
//                  events dispatched, the baseline a faster scheduler is
//                  measured against (--check: two runs must produce
//                  byte-identical compact bytes);
//   run_to_report  a registered app (FLASH-fbs) driven end to end —
//                  capture + full report — at ranks 64/256/1024, on both
//                  the materialized and the chunked streaming pipeline,
//                  with peak RSS per pipeline measured in a fresh
//                  subprocess each (--scale64k appends a 65536-rank
//                  streaming-only point; materializing it would need the
//                  whole record array in memory at once, and a
//                  131072-rank windowed pF3D-IO point that must complete
//                  under the 65536-rank point's RSS — twice the ranks in
//                  less memory).
//   memory_scaling full-log vs windowed analysis peak RSS on a synthetic
//                  phased N-N checkpoint trace fed straight into the
//                  analyzer, at ranks 1024/4096/16384 in fresh
//                  subprocesses — windowed memory must be bounded by the
//                  live window, not the trace (>=2x below full-log at
//                  16384 ranks, enforced at record time; --scale64k adds
//                  131072-rank windowed under 65536-rank full-log).
//   cluster_failover  a read-heavy app (LBANN) on the multi-server
//                  PfsCluster, healthy vs one crashed MDS + one crashed
//                  OST: wall throughput, simulated time-to-recover
//                  (completion-time overhead of failover backoffs), and
//                  the degraded-read count.
//   obs_overhead   the same FLASH-fbs run->report pipeline with
//                  observability off, with the metrics registry wired in,
//                  and with metrics + the cost-attribution ledger —
//                  interleaved best-of so a load spike hits all three
//                  arms (--check floor: each obs arm within 5% of off).
//
// Subprocess mode (used internally for RSS measurement, and by the
// stream_rss_bounded ctest entry):
//   bench_perf_scaling --rss-probe stream|materialize|windowed RANKS
//                  run the FLASH-fbs run->report pipeline once in the
//                  given mode and print one line of key=value pairs
//                  including this process's getrusage peak RSS
//                  (windowed = streaming with per-file retirement).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <utility>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "capture_kernel.hpp"

#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/core/stream_analyze.hpp"
#include "pfsem/trace/record.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/spill.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/overlap.hpp"
#include "pfsem/exec/pool.hpp"
#include "pfsem/obs/obs.hpp"
#include "pfsem/util/rng.hpp"

namespace {

using namespace pfsem;

double now_seconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Best-of-k wall time of `fn` in seconds.
template <typename Fn>
double best_of(int k, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < k; ++i) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
}

/// Synthetic many-file log: per file a checkpoint-like mix of mostly
/// disjoint per-rank writes plus a shared header that every rank rewrites
/// (real overlap pressure on every file).
core::AccessLog make_conflict_log(std::size_t nfiles,
                                  std::size_t accesses_per_file) {
  core::AccessLog log;
  log.nranks = 64;
  Rng rng(1234);
  for (std::size_t f = 0; f < nfiles; ++f) {
    auto& fl = log.file("/scratch/run/ckpt." + std::to_string(f));
    for (std::size_t i = 0; i < accesses_per_file; ++i) {
      core::Access a;
      a.rank = static_cast<Rank>(rng.below(64));
      a.t = static_cast<SimTime>(i * 1000 + f);
      a.t_open = 0;
      a.t_close = kTimeNever;
      a.t_commit = kTimeNever;
      a.type =
          rng.chance(0.75) ? core::AccessType::Write : core::AccessType::Read;
      if (i % 64 == 0) {
        a.ext = {0, 128};  // shared header rewrite
      } else {
        const Offset begin = static_cast<Offset>(rng.below(1u << 20)) * 4096;
        a.ext = {begin, begin + 4096};
      }
      fl.accesses.push_back(a);
    }
  }
  return log;
}

/// Adversarial single-file log for the sweep-vs-scan comparison: n mostly
/// long-lived reads and a few writes. The scan's stop condition is
/// begin-order, so it visits ~n^2/2 read-read candidates that the
/// default writes_only filter then rejects; the sweep never visits them.
std::vector<core::Access> long_reads(std::size_t n) {
  std::vector<core::Access> v;
  v.reserve(n);
  constexpr std::size_t kWriters = 16;
  for (std::size_t i = 0; i < n; ++i) {
    core::Access a;
    a.rank = static_cast<Rank>(i % 64);
    a.t = static_cast<SimTime>(i);
    if (i % std::max<std::size_t>(n / kWriters, 1) == 0) {
      a.type = core::AccessType::Write;
      a.ext = {static_cast<Offset>(i), static_cast<Offset>(i) + 4096};
    } else {
      a.type = core::AccessType::Read;
      a.ext = {static_cast<Offset>(i), 1'000'000'000};
    }
    v.push_back(a);
  }
  return v;
}

/// Canonical text form of a report, for exact equality checks.
std::string fingerprint(const core::ConflictReport& r) {
  std::ostringstream os;
  os << r.potential_pairs << '|' << r.session.count << r.session.waw_s
     << r.session.waw_d << r.session.raw_s << r.session.raw_d << '|'
     << r.commit.count << r.commit.waw_s << r.commit.waw_d << r.commit.raw_s
     << r.commit.raw_d << '\n';
  for (const auto& c : r.conflicts) {
    os << c.file << ' ' << c.first.rank << ' ' << c.first.t << ' '
       << c.first.ext.begin << ' ' << c.first.ext.end << ' ' << c.second.rank
       << ' ' << c.second.t << ' ' << c.second.ext.begin << ' '
       << c.second.ext.end << ' ' << static_cast<int>(c.kind) << ' '
       << c.same_process << c.under_commit << c.under_session << '\n';
  }
  return os.str();
}

struct ThreadPoint {
  int threads;
  double seconds;
};

/// Synthetic raw trace for the intern-vs-string grouping experiment:
/// `nrecords` data records spread round-robin over `nfiles` paths with
/// realistic path lengths (directory prefix + numbered leaf).
trace::TraceBundle make_bundle(std::size_t nfiles, std::size_t nrecords) {
  trace::TraceBundle bundle;
  bundle.nranks = 64;
  std::vector<FileId> ids;
  ids.reserve(nfiles);
  for (std::size_t f = 0; f < nfiles; ++f) {
    ids.push_back(bundle.intern("/scratch/project/run.0042/output/ckpt." +
                                std::to_string(f) + ".h5"));
  }
  Rng rng(99);
  for (std::size_t i = 0; i < nrecords; ++i) {
    trace::Record rec;
    rec.tstart = static_cast<SimTime>(i * 10);
    rec.tend = rec.tstart + 5;
    rec.rank = static_cast<Rank>(rng.below(64));
    rec.layer = trace::Layer::Posix;
    rec.func = trace::Func::pwrite;
    rec.offset = static_cast<std::int64_t>(rng.below(1u << 20)) * 4096;
    rec.count = 4096;
    rec.ret = 4096;
    rec.file = ids[i % nfiles];
    bundle.records.push_back(std::move(rec));
  }
  return bundle;
}

/// Per-record file grouping the way the retired design did it: resolve
/// every record to its path string and look the string up in a
/// string-keyed ordered map (what `AccessLog` used to be built on).
std::size_t group_by_string(const trace::TraceBundle& bundle) {
  std::map<std::string, std::vector<const trace::Record*>> groups;
  for (const auto& rec : bundle.records) {
    groups[std::string(bundle.path_of(rec))].push_back(&rec);
  }
  return groups.size();
}

/// The same grouping on the interned representation: the FileId indexes a
/// dense vector directly, no hashing or string compares per record.
std::size_t group_by_id(const trace::TraceBundle& bundle) {
  std::vector<std::vector<const trace::Record*>> groups(bundle.paths.size());
  for (const auto& rec : bundle.records) {
    groups[rec.file].push_back(&rec);
  }
  std::size_t active = 0;
  for (const auto& g : groups) active += !g.empty();
  return active;
}

// The capture-path kernel lives in capture_kernel.cpp (own TU so the
// timed coroutine loop's codegen is independent of this driver's size);
// see capture_kernel.hpp.
using pfsem_bench::CaptureRun;
using pfsem_bench::run_capture;

/// One end-to-end run→report point: capture FLASH-fbs at `ranks`, then
/// the full analysis + report.
struct RunToReportPoint {
  std::string app = "FLASH-fbs";
  int ranks = 0;
  std::size_t records = 0;
  double capture_seconds = 0;
  double analysis_seconds = 0;
  // Chunked streaming pipeline (same workload, spill → merge → stream
  // analysis) plus peak RSS for both pipelines, each measured in a fresh
  // subprocess so neither allocator high-water pollutes the other.
  double stream_capture_seconds = 0;
  double stream_analysis_seconds = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t stream_peak_buffered = 0;
  long stream_rss_kb = 0;
  long materialized_rss_kb = 0;
  bool streaming_only = false;
  // Windowed streaming point (per-file retirement): RSS bounded by the
  // live window, so ranks can keep doubling past the full-log ceiling.
  bool windowed = false;
  std::uint64_t live_peak = 0;
  std::uint64_t retired = 0;
};

/// This process's peak resident set, as the kernel accounts it (KiB on
/// Linux).
long current_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::string materialized_report_text(const trace::TraceBundle& bundle) {
  const auto log = core::reconstruct_accesses(bundle);
  const auto pairs = core::detect_file_overlaps(log);
  const auto conflicts = core::detect_conflicts(log, pairs, {});
  const auto rep = core::build_report(bundle, log, conflicts);
  std::ostringstream os;
  core::print_report(rep, os);
  return os.str();
}

/// The streaming run→report pipeline, timed phase by phase: capture
/// spills chunks into a 64 MiB-ceiling store, the harness dies, then one
/// replay pass drives the incremental analysis and the report.
struct StreamRun {
  std::uint64_t records = 0;
  double capture_seconds = 0;
  double analysis_seconds = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t peak_buffered = 0;
  std::uint64_t live_peak = 0;  ///< windowed mode: live-window high-water
  std::uint64_t retired = 0;    ///< windowed mode: accesses freed mid-stream
  std::string report;
};

StreamRun stream_run_to_report(const apps::AppInfo& info, int ranks) {
  StreamRun out;
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);
  trace::SpillStore store(64u << 20);
  trace::StreamMeta meta;
  double t0 = now_seconds();
  {
    trace::ChunkWriter writer(store, ranks);
    meta = apps::run_app_stream(info, writer, cfg);
    writer.finish(meta);
  }
  out.capture_seconds = now_seconds() - t0;
  out.spill_bytes = store.bytes();
  t0 = now_seconds();
  core::StreamAnalyzer analyzer(meta.nranks, std::move(meta.paths),
                                std::move(meta.rank_posix_counts),
                                meta.file_op_counts);
  {
    const auto in = store.open_read();
    trace::ChunkReader reader(*in);
    trace::Record rec;
    while (reader.next(rec)) analyzer.feed(rec);
    (void)reader.read_trailer();
  }
  out.peak_buffered = analyzer.peak_buffered();
  auto res = analyzer.finish();
  out.records = res.records;
  const auto pairs = core::detect_file_overlaps(res.log);
  const auto conflicts = core::detect_conflicts(res.log, pairs, {});
  const auto rep = core::assemble_report(std::move(res.stats), res.records,
                                         res.log.nranks, res.log, conflicts);
  std::ostringstream os;
  core::print_report(rep, os);
  out.report = os.str();
  out.analysis_seconds = now_seconds() - t0;
  return out;
}

/// The windowed streaming pipeline on the same workload: identical spill
/// and replay, but per-file analysis retires at the stream frontier, so
/// the resident set tracks the live window instead of the trace.
StreamRun stream_windowed_to_report(const apps::AppInfo& info, int ranks) {
  StreamRun out;
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);
  trace::SpillStore store(64u << 20);
  trace::StreamMeta meta;
  double t0 = now_seconds();
  {
    trace::ChunkWriter writer(store, ranks);
    meta = apps::run_app_stream(info, writer, cfg);
    writer.finish(meta);
  }
  out.capture_seconds = now_seconds() - t0;
  out.spill_bytes = store.bytes();
  t0 = now_seconds();
  core::StreamAnalyzer analyzer(meta.nranks, std::move(meta.paths),
                                std::move(meta.rank_posix_counts),
                                meta.file_op_counts);
  analyzer.enable_window({}, std::move(meta.file_posix_counts));
  {
    const auto in = store.open_read();
    trace::ChunkReader reader(*in);
    trace::Record rec;
    while (reader.next(rec)) analyzer.feed(rec);
    (void)reader.read_trailer();
  }
  out.peak_buffered = analyzer.peak_buffered();
  auto res = analyzer.finish_windowed();
  out.records = res.records;
  out.live_peak = res.peak_live_files;
  out.retired = res.retired_accesses;
  const auto rep = core::assemble_windowed_report(std::move(res.stats),
                                                  res.records, res.nranks,
                                                  res.summaries);
  std::ostringstream os;
  core::print_report(rep, os);
  out.report = os.str();
  out.analysis_seconds = now_seconds() - t0;
  return out;
}

// Phased N-N checkpoint trace for the memory_scaling experiment: every
// rank writes one private file per phase (kPhasedWrites sequential
// pwrites), phases strictly one after another — the dominant checkpoint
// cadence of the paper's Table 2 apps. The records are synthesized
// straight into the analyzer (like the other synthetic experiments),
// so the probe's RSS measures the *analysis* — full AccessLog vs live
// window — without a simulator's per-rank coroutine state drowning it.
constexpr int kPhasedPhases = 8;
constexpr int kPhasedWrites = 48;
constexpr std::int64_t kPhasedChunk = 65'536;

trace::PathTable phased_paths(int ranks) {
  trace::PathTable paths;
  for (int p = 0; p < kPhasedPhases; ++p) {
    for (int r = 0; r < ranks; ++r) {
      paths.intern("ckpt." + std::to_string(p) + "." + std::to_string(r));
    }
  }
  return paths;
}

/// Posix records per rank per phase: open + writes + close.
constexpr int kPhasedOps = kPhasedWrites + 2;

/// Emit the phased trace in emission order (ranks advance in lockstep;
/// per-rank tstarts are monotone, which is all the reorder buffer needs).
template <typename Fn>
std::uint64_t phased_records(int ranks, Fn&& emit) {
  std::uint64_t n = 0;
  for (int p = 0; p < kPhasedPhases; ++p) {
    for (int i = 0; i < kPhasedOps; ++i) {
      for (int r = 0; r < ranks; ++r) {
        trace::Record rec;
        rec.tstart = static_cast<SimTime>(p * kPhasedOps + i) * 1'000'000 +
                     static_cast<SimTime>(r);
        rec.tend = rec.tstart + 500;
        rec.rank = static_cast<Rank>(r);
        rec.layer = trace::Layer::Posix;
        rec.fd = 3;
        rec.file = static_cast<FileId>(p * ranks + r);
        if (i == 0) {
          rec.func = trace::Func::open;
          rec.flags = trace::kCreate | trace::kTrunc | trace::kWrOnly;
          rec.ret = 3;
        } else if (i == kPhasedOps - 1) {
          rec.func = trace::Func::close;
          rec.ret = 0;
        } else {
          rec.func = trace::Func::pwrite;
          rec.offset = static_cast<std::int64_t>(i - 1) * kPhasedChunk;
          rec.count = kPhasedChunk;
          rec.ret = kPhasedChunk;
        }
        emit(rec);
        ++n;
      }
    }
  }
  return n;
}

/// Feed the phased trace through the streaming analyzer, full-log or
/// windowed, and report what the probes need.
StreamRun phased_analysis(int ranks, bool windowed) {
  StreamRun out;
  const std::size_t nfiles =
      static_cast<std::size_t>(kPhasedPhases) * static_cast<std::size_t>(ranks);
  std::vector<std::uint64_t> rank_counts(
      static_cast<std::size_t>(ranks),
      static_cast<std::uint64_t>(kPhasedPhases) * kPhasedOps);
  std::vector<std::uint32_t> hints(nfiles, kPhasedOps);
  const double t0 = now_seconds();
  core::StreamAnalyzer analyzer(ranks, phased_paths(ranks),
                                std::move(rank_counts), hints);
  if (windowed) {
    analyzer.enable_window({},
                           std::vector<std::uint64_t>(nfiles, kPhasedOps));
  }
  out.records = phased_records(
      ranks, [&](const trace::Record& rec) { analyzer.feed(rec); });
  out.peak_buffered = analyzer.peak_buffered();
  std::ostringstream os;
  if (windowed) {
    auto res = analyzer.finish_windowed();
    out.live_peak = res.peak_live_files;
    out.retired = res.retired_accesses;
    const auto rep = core::assemble_windowed_report(
        std::move(res.stats), res.records, res.nranks, res.summaries);
    core::print_report(rep, os);
  } else {
    auto res = analyzer.finish();
    const auto pairs = core::detect_file_overlaps(res.log);
    const auto conflicts = core::detect_conflicts(res.log, pairs, {});
    const auto rep = core::assemble_report(std::move(res.stats), res.records,
                                           res.log.nranks, res.log, conflicts);
    core::print_report(rep, os);
  }
  out.report = os.str();
  out.analysis_seconds = now_seconds() - t0;
  return out;
}

/// Child mode for --rss-probe: one pipeline run, one line of key=value
/// output including this process's peak RSS.
int rss_probe_main(const std::string& mode, int ranks,
                   const std::string& app) {
  if (mode == "phased" || mode == "phased-windowed") {
    const auto s = phased_analysis(ranks, mode == "phased-windowed");
    std::cout << "records=" << s.records << " rss_kb=" << current_rss_kb()
              << " spill_bytes=0 peak_buffered=" << s.peak_buffered
              << " live_peak=" << s.live_peak << " retired=" << s.retired
              << " capture_seconds=0 analysis_seconds=" << s.analysis_seconds
              << "\n";
    return s.report.empty() ? 1 : 0;
  }
  const auto* flash = apps::find_app(app);
  if (flash == nullptr) return 1;
  if (mode == "stream") {
    const auto s = stream_run_to_report(*flash, ranks);
    std::cout << "records=" << s.records << " rss_kb=" << current_rss_kb()
              << " spill_bytes=" << s.spill_bytes
              << " peak_buffered=" << s.peak_buffered
              << " capture_seconds=" << s.capture_seconds
              << " analysis_seconds=" << s.analysis_seconds << "\n";
    return s.report.empty() ? 1 : 0;
  }
  if (mode == "windowed") {
    const auto s = stream_windowed_to_report(*flash, ranks);
    std::cout << "records=" << s.records << " rss_kb=" << current_rss_kb()
              << " spill_bytes=" << s.spill_bytes
              << " peak_buffered=" << s.peak_buffered
              << " live_peak=" << s.live_peak << " retired=" << s.retired
              << " capture_seconds=" << s.capture_seconds
              << " analysis_seconds=" << s.analysis_seconds << "\n";
    return s.report.empty() ? 1 : 0;
  }
  if (mode == "materialize") {
    apps::AppConfig cfg;
    cfg.nranks = ranks;
    cfg.ranks_per_node = std::max(1, ranks / 8);
    double t0 = now_seconds();
    const auto bundle = apps::run_app(*flash, cfg);
    const double cap = now_seconds() - t0;
    t0 = now_seconds();
    const auto text = materialized_report_text(bundle);
    const double ana = now_seconds() - t0;
    std::cout << "records=" << bundle.records.size()
              << " rss_kb=" << current_rss_kb()
              << " spill_bytes=0 peak_buffered=0 capture_seconds=" << cap
              << " analysis_seconds=" << ana << "\n";
    return text.empty() ? 1 : 0;
  }
  std::cerr << "usage: bench_perf_scaling --rss-probe "
               "stream|materialize|windowed|phased|phased-windowed RANKS "
               "[APP]\n";
  return 2;
}

struct ProbeResult {
  bool ok = false;
  std::uint64_t records = 0;
  long rss_kb = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t peak_buffered = 0;
  std::uint64_t live_peak = 0;
  std::uint64_t retired = 0;
  double capture_seconds = 0;
  double analysis_seconds = 0;
};

/// Re-exec this binary as an --rss-probe child and parse its one-line
/// report. A fresh process per measurement is the only way getrusage's
/// high-water mark means anything.
ProbeResult probe_pipeline(const std::string& mode, int ranks,
                           const std::string& app = "FLASH-fbs") {
  ProbeResult r;
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) return r;
  exe[n] = '\0';
  const std::string cmd = std::string(exe) + " --rss-probe " + mode + " " +
                          std::to_string(ranks) + " '" + app +
                          "' 2>/dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char line[512] = {};
  const bool got = std::fgets(line, sizeof line, pipe) != nullptr;
  const int rc = ::pclose(pipe);
  if (!got || rc != 0) return r;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    try {
      if (key == "records") r.records = std::stoull(val);
      else if (key == "rss_kb") r.rss_kb = std::stol(val);
      else if (key == "spill_bytes") r.spill_bytes = std::stoull(val);
      else if (key == "peak_buffered") r.peak_buffered = std::stoull(val);
      else if (key == "live_peak") r.live_peak = std::stoull(val);
      else if (key == "retired") r.retired = std::stoull(val);
      else if (key == "capture_seconds") r.capture_seconds = std::stod(val);
      else if (key == "analysis_seconds") r.analysis_seconds = std::stod(val);
    } catch (const std::exception&) {
      return r;
    }
  }
  r.ok = true;
  return r;
}

RunToReportPoint run_to_report(const apps::AppInfo& info, int ranks,
                               int reps) {
  RunToReportPoint pt;
  pt.ranks = ranks;
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);

  trace::TraceBundle bundle;
  pt.capture_seconds =
      best_of(reps, [&] { bundle = apps::run_app(info, cfg); });
  pt.records = bundle.records.size();

  std::string report_text;
  pt.analysis_seconds = best_of(reps, [&] {
    report_text = materialized_report_text(bundle);
    if (report_text.empty()) std::abort();  // keep the report alive
  });

  // The streaming pipeline on the identical workload; its report must be
  // byte-identical (the differential tests enforce this broadly, the
  // bench re-checks the exact configuration it publishes numbers for).
  StreamRun stream;
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto s = stream_run_to_report(info, ranks);
    if (s.capture_seconds + s.analysis_seconds < best) {
      best = s.capture_seconds + s.analysis_seconds;
      stream = std::move(s);
    }
  }
  if (stream.report != report_text) {
    std::cerr << "FAIL: streaming report differs from materialized at ranks="
              << ranks << "\n";
    std::abort();
  }
  pt.stream_capture_seconds = stream.capture_seconds;
  pt.stream_analysis_seconds = stream.analysis_seconds;
  pt.spill_bytes = stream.spill_bytes;
  pt.stream_peak_buffered = stream.peak_buffered;
  return pt;
}

/// One obs_overhead sample: the full run->report pipeline (capture +
/// materialized analysis + report) at the given observability level —
/// 0 = off, 1 = metrics registry, 2 = metrics + cost-attribution ledger.
/// A fresh obs::Run per sample keeps each timed iteration identical
/// (metrics and ledger rows accumulate across a Run's lifetime).
double obs_overhead_run(const apps::AppInfo& info, int ranks, int level,
                        std::string* report_out) {
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);
  obs::Run run(obs::Config{.metrics = level >= 1,
                           .tracing = false,
                           .ledger = level >= 2});
  if (level >= 1) cfg.obs = &run;
  const double t0 = now_seconds();
  const auto bundle = apps::run_app(info, cfg);
  if (level >= 1) exec::set_observer(&run);
  const auto text = materialized_report_text(bundle);
  exec::set_observer(nullptr);
  const double dt = now_seconds() - t0;
  if (text.empty()) std::abort();  // keep the report alive
  if (level >= 2 && run.ledger.empty()) std::abort();
  if (report_out != nullptr) *report_out = text;
  return dt;
}

int run(bool check, bool scale64k, const std::string& out_path,
        const std::string& sha, const std::string& timestamp,
        const std::string& host) {
  const int cores = exec::hardware_threads();
  const std::size_t nfiles = check ? 32 : 128;
  const std::size_t per_file = check ? 2'000 : 20'000;
  const std::size_t adversarial_n = check ? 8'192 : 16'384;
  const int reps = check ? 2 : 3;

  std::cout << "hardware threads: " << cores << "\n";

  // --- experiment 1: thread scaling of detect_conflicts ----------------
  const auto log = make_conflict_log(nfiles, per_file);
  const auto reference = core::detect_conflicts(log, core::ConflictOptions{.threads = 1});
  const std::string ref_print = fingerprint(reference);

  std::vector<ThreadPoint> points;
  for (const int t : {1, 2, 4, 8}) {
    core::ConflictReport got;
    const double secs = best_of(
        reps, [&] { got = core::detect_conflicts(log, core::ConflictOptions{.threads = t}); });
    if (fingerprint(got) != ref_print) {
      std::cerr << "FAIL: detect_conflicts(threads=" << t
                << ") differs from sequential\n";
      return 1;
    }
    points.push_back({t, secs});
    std::cout << "detect_conflicts threads=" << t << "  " << secs << " s\n";
  }

  // --- experiment 2: sweep vs scan on the adversarial log ---------------
  const auto adv = long_reads(adversarial_n);
  std::vector<core::OverlapPair> sweep_pairs, scan_pairs;
  // Interleaved best-of (sweep, scan, sweep, scan, ...): a transient load
  // spike on a shared host hits both sides instead of biasing the ratio
  // the --check floor asserts on. Check mode takes an extra rep — the
  // floor sits close to the single-core margin, so one noisy sample must
  // never decide it.
  double sweep_s = 1e300, scan_s = 1e300;
  for (int rep = 0; rep < (check ? 4 : reps); ++rep) {
    double t0 = now_seconds();
    sweep_pairs = core::detect_overlaps(adv);
    sweep_s = std::min(sweep_s, now_seconds() - t0);
    t0 = now_seconds();
    scan_pairs = core::detect_overlaps_scan(adv);
    scan_s = std::min(scan_s, now_seconds() - t0);
  }
  if (sweep_pairs != scan_pairs) {
    std::cerr << "FAIL: sweep and scan disagree on the adversarial log\n";
    return 1;
  }
  const double sweep_speedup = scan_s / sweep_s;
  std::cout << "sweep " << sweep_s << " s   scan " << scan_s
            << " s   speedup " << sweep_speedup << "x\n";

  // --- experiment 3: interned vs string-keyed record grouping -----------
  // The refactor's core claim: resolving each record's file by FileId into
  // a dense column beats hashing/comparing its path string into a
  // string-keyed map (the retired reconstruction hot path).
  const std::size_t rec_files = check ? 512 : 2'048;
  const std::size_t rec_records = check ? 400'000 : 4'000'000;
  const auto bundle = make_bundle(rec_files, rec_records);
  std::size_t string_groups = 0, id_groups = 0;
  const double string_s =
      best_of(reps, [&] { string_groups = group_by_string(bundle); });
  const double interned_s =
      best_of(reps, [&] { id_groups = group_by_id(bundle); });
  if (string_groups != id_groups) {
    std::cerr << "FAIL: interned grouping found " << id_groups
              << " files, string grouping found " << string_groups << "\n";
    return 1;
  }
  const double intern_speedup = string_s / interned_s;
  std::cout << "reconstruction grouping: string-keyed " << string_s
            << " s   interned " << interned_s << " s   speedup "
            << intern_speedup << "x\n";

  // --- experiment 4: capture path on a delay(0)-heavy schedule ---------
  // Seconds and events are the baseline for scheduler work; two
  // independent runs must emit the exact same compact bytes.
  const int cap_roots = check ? 32'768 : 65'536;
  const int cap_rounds = check ? 8 : 16;
  const CaptureRun cap = run_capture(cap_roots, cap_rounds, check ? 2 : reps);
  const CaptureRun cap_again = run_capture(cap_roots, cap_rounds, 1);
  if (cap.compact_bytes != cap_again.compact_bytes ||
      cap.events != cap_again.events) {
    std::cerr << "FAIL: two runs of the capture kernel produced different "
                 "bundles\n";
    return 1;
  }
  std::cout << "capture path (" << cap.events << " events): " << cap.seconds
            << " s\n";

  // --- experiment 5: end-to-end run -> report on a registered app -------
  const auto* flash = apps::find_app("FLASH-fbs");
  if (flash == nullptr) {
    std::cerr << "FAIL: FLASH-fbs not in the registry\n";
    return 1;
  }
  std::vector<RunToReportPoint> r2r;
  for (const int ranks : check ? std::vector<int>{64}
                               : std::vector<int>{64, 256, 1024}) {
    auto pt = run_to_report(*flash, ranks, check ? 1 : 2);
    if (!check) {
      // Peak RSS per pipeline, each in its own child process so one
      // pipeline's allocator high-water can't shadow the other's.
      const auto sp = probe_pipeline("stream", ranks);
      const auto mp = probe_pipeline("materialize", ranks);
      if (sp.ok) pt.stream_rss_kb = sp.rss_kb;
      if (mp.ok) pt.materialized_rss_kb = mp.rss_kb;
    }
    std::cout << "run_to_report FLASH-fbs ranks=" << pt.ranks << "  records="
              << pt.records << "  capture " << pt.capture_seconds
              << " s   analysis " << pt.analysis_seconds
              << " s   stream capture " << pt.stream_capture_seconds
              << " s + analysis " << pt.stream_analysis_seconds
              << " s (spill " << pt.spill_bytes << " B, rss "
              << pt.stream_rss_kb << " vs " << pt.materialized_rss_kb
              << " KiB)\n";
    r2r.push_back(pt);
  }
  if (scale64k) {
    // 65536 ranks is streaming-only territory: the materialized pipeline
    // would hold the whole ~26M-record array in memory at once. The point
    // comes entirely from a subprocess probe so its RSS is honest too.
    const int big = 65'536;
    std::cout << "run_to_report FLASH-fbs ranks=" << big
              << " (streaming-only, subprocess)...\n";
    const auto sp = probe_pipeline("stream", big);
    if (!sp.ok) {
      std::cerr << "FAIL: 65536-rank streaming probe did not complete\n";
      return 1;
    }
    RunToReportPoint pt;
    pt.ranks = big;
    pt.records = sp.records;
    pt.stream_capture_seconds = sp.capture_seconds;
    pt.stream_analysis_seconds = sp.analysis_seconds;
    pt.spill_bytes = sp.spill_bytes;
    pt.stream_peak_buffered = sp.peak_buffered;
    pt.stream_rss_kb = sp.rss_kb;
    pt.streaming_only = true;
    std::cout << "run_to_report FLASH-fbs ranks=" << pt.ranks << "  records="
              << pt.records << "  stream capture " << pt.stream_capture_seconds
              << " s + analysis " << pt.stream_analysis_seconds
              << " s (spill " << pt.spill_bytes << " B, rss "
              << pt.stream_rss_kb << " KiB)\n";
    r2r.push_back(pt);

    // Twice the ranks in less memory: a windowed end-to-end run at 131072
    // ranks must fit under the RSS the 65536-rank point above needed.
    // FLASH's RSS at this scale is collective-state, not log (its POSIX
    // I/O funnels through 6 aggregators), so the point uses pF3D-IO —
    // file-per-process POSIX, the paper's N-N checkpoint kernel — whose
    // trace grows with every rank. Enforced here, not just recorded.
    const int huge = 131'072;
    std::cout << "run_to_report pF3D-IO ranks=" << huge
              << " (windowed, subprocess)...\n";
    const auto wp = probe_pipeline("windowed", huge, "pF3D-IO");
    if (!wp.ok) {
      std::cerr << "FAIL: 131072-rank windowed probe did not complete\n";
      return 1;
    }
    if (wp.rss_kb >= sp.rss_kb) {
      std::cerr << "FAIL: windowed RSS at " << huge << " ranks (" << wp.rss_kb
                << " KiB) not below the full-log stream RSS at " << big
                << " ranks (" << sp.rss_kb << " KiB)\n";
      return 1;
    }
    RunToReportPoint wpt;
    wpt.app = "pF3D-IO";
    wpt.ranks = huge;
    wpt.records = wp.records;
    wpt.stream_capture_seconds = wp.capture_seconds;
    wpt.stream_analysis_seconds = wp.analysis_seconds;
    wpt.spill_bytes = wp.spill_bytes;
    wpt.stream_peak_buffered = wp.peak_buffered;
    wpt.stream_rss_kb = wp.rss_kb;
    wpt.streaming_only = true;
    wpt.windowed = true;
    wpt.live_peak = wp.live_peak;
    wpt.retired = wp.retired;
    std::cout << "run_to_report " << wpt.app << " ranks=" << wpt.ranks
              << "  records=" << wpt.records << "  windowed capture "
              << wpt.stream_capture_seconds << " s + analysis "
              << wpt.stream_analysis_seconds << " s (spill " << wpt.spill_bytes
              << " B, rss " << wpt.stream_rss_kb << " KiB, live peak "
              << wpt.live_peak << " files, retired " << wpt.retired
              << " accesses)\n";
    r2r.push_back(wpt);
  }

  // --- experiment 5c: memory scaling — full-log vs windowed analysis ----
  // The tentpole claim in one curve: with per-file retirement the
  // analyzer's resident set is bounded by the live window (one checkpoint
  // generation of the phased N-N trace), not the trace, so the
  // windowed/full-log RSS gap widens with rank count. Every point is a
  // fresh subprocess feeding the synthesized trace straight into the
  // analyzer — no simulator, so the probe measures the analysis alone.
  struct MemoryPoint {
    int ranks = 0;
    ProbeResult full;
    ProbeResult windowed;
  };
  std::vector<MemoryPoint> mem;
  {
    // Identity first: full-log, windowed, and the materialized oracle on
    // the identical phased trace (the differential tests cover every
    // registered app; the bench re-checks the workload it publishes
    // numbers for, against the third pipeline too).
    const int id_ranks = check ? 64 : 256;
    const auto full = phased_analysis(id_ranks, false);
    const auto win = phased_analysis(id_ranks, true);
    trace::TraceBundle oracle;
    oracle.nranks = id_ranks;
    for (int p = 0; p < kPhasedPhases; ++p) {
      for (int r = 0; r < id_ranks; ++r) {
        (void)oracle.intern("ckpt." + std::to_string(p) + "." +
                            std::to_string(r));
      }
    }
    (void)phased_records(id_ranks, [&](const trace::Record& rec) {
      oracle.records.push_back(rec);
    });
    const auto oracle_text = materialized_report_text(oracle);
    if (full.report != oracle_text || win.report != oracle_text) {
      std::cerr << "FAIL: phased-trace reports disagree (full-log vs "
                   "windowed vs materialized oracle) at ranks="
                << id_ranks << "\n";
      return 1;
    }
    if (win.retired == 0 ||
        win.live_peak >= static_cast<std::size_t>(kPhasedPhases) *
                             static_cast<std::size_t>(id_ranks)) {
      std::cerr << "FAIL: windowed analysis must retire files mid-stream "
                   "(live peak " << win.live_peak << " of "
                << kPhasedPhases * id_ranks << " files, retired "
                << win.retired << ")\n";
      return 1;
    }
    std::cout << "memory_scaling identity ranks=" << id_ranks
              << "  all three pipelines byte-identical (live peak "
              << win.live_peak << " files, retired " << win.retired
              << " accesses)\n";
  }
  ProbeResult ms_full_64k, ms_win_128k;
  if (!check) {
    for (const int ranks : {1024, 4096, 16384}) {
      MemoryPoint pt;
      pt.ranks = ranks;
      pt.full = probe_pipeline("phased", ranks);
      pt.windowed = probe_pipeline("phased-windowed", ranks);
      if (!pt.full.ok || !pt.windowed.ok) {
        std::cerr << "FAIL: memory_scaling probe did not complete at ranks="
                  << ranks << "\n";
        return 1;
      }
      std::cout << "memory_scaling ranks=" << ranks << "  full-log rss "
                << pt.full.rss_kb << " KiB   windowed rss "
                << pt.windowed.rss_kb << " KiB ("
                << static_cast<double>(pt.full.rss_kb) /
                       static_cast<double>(pt.windowed.rss_kb)
                << "x, live peak " << pt.windowed.live_peak
                << " files, retired " << pt.windowed.retired << ")\n";
      mem.push_back(pt);
    }
    // The headline bound: at 16384 ranks the windowed analyzer must hold
    // at least 2x below the full-log path.
    const auto& last = mem.back();
    if (last.windowed.rss_kb * 2 > last.full.rss_kb) {
      std::cerr << "FAIL: windowed RSS at 16384 ranks ("
                << last.windowed.rss_kb
                << " KiB) not >=2x below full-log stream ("
                << last.full.rss_kb << " KiB)\n";
      return 1;
    }
    if (scale64k) {
      // Double the ranks in less memory: the windowed analyzer at 131072
      // ranks must fit under what the full-log path spent on 65536.
      std::cout << "memory_scaling scale points (subprocess)...\n";
      ms_full_64k = probe_pipeline("phased", 65'536);
      ms_win_128k = probe_pipeline("phased-windowed", 131'072);
      if (!ms_full_64k.ok || !ms_win_128k.ok) {
        std::cerr << "FAIL: memory_scaling scale probe did not complete\n";
        return 1;
      }
      if (ms_win_128k.rss_kb >= ms_full_64k.rss_kb) {
        std::cerr << "FAIL: windowed RSS at 131072 ranks ("
                  << ms_win_128k.rss_kb
                  << " KiB) not below the full-log RSS at 65536 ranks ("
                  << ms_full_64k.rss_kb << " KiB)\n";
        return 1;
      }
      std::cout << "memory_scaling ranks=65536 full-log rss "
                << ms_full_64k.rss_kb << " KiB   ranks=131072 windowed rss "
                << ms_win_128k.rss_kb << " KiB (live peak "
                << ms_win_128k.live_peak << " files)\n";
    }
  }

  // --- experiment 6: cluster failover — degraded vs healthy -------------
  // The same workload on the multi-server backend, healthy and with one
  // MDS plus one OST crashed early in the run. Time-to-recover shows up
  // as the simulated completion-time overhead (failover backoff + holes);
  // wall throughput shows the capture-side cost of the degraded path.
  const auto* lbann = apps::find_app("LBANN");
  if (lbann == nullptr) {
    std::cerr << "FAIL: LBANN not in the registry\n";
    return 1;
  }
  apps::AppConfig cl_cfg;
  cl_cfg.nranks = check ? 64 : 256;
  cl_cfg.ranks_per_node = cl_cfg.nranks / 8;
  vfs::ClusterConfig cl_topo;
  cl_topo.mds_count = 2;
  cl_topo.ost_count = 4;
  auto sim_end = [](const trace::TraceBundle& b) {
    SimTime end = 0;
    for (const auto& r : b.records) end = std::max(end, r.tend);
    return end;
  };
  trace::TraceBundle cl_healthy;
  const double cl_healthy_s = best_of(
      reps, [&] { cl_healthy = apps::run_app_cluster(*lbann, cl_cfg, cl_topo); });
  apps::FaultSetup cl_setup;
  cl_setup.plan =
      fault::FaultPlan::parse("crash_mds:id=0,t=1ms; crash_ost:id=1,t=1ms");
  cl_setup.seed = 5;
  fault::FaultStats cl_stats;
  trace::TraceBundle cl_degraded;
  const double cl_degraded_s = best_of(reps, [&] {
    cl_degraded = apps::run_app_cluster(*lbann, cl_cfg, cl_topo, {}, &cl_setup,
                                        &cl_stats);
  });
  const SimTime cl_recover =
      sim_end(cl_degraded) - sim_end(cl_healthy);
  std::cout << "cluster_failover LBANN ranks=" << cl_cfg.nranks
            << "  healthy " << cl_healthy_s << " s   degraded "
            << cl_degraded_s << " s   sim overhead " << cl_recover
            << " ns   redirects " << cl_stats.failover_redirects
            << "   degraded reads " << cl_stats.degraded_reads << "\n";

  // --- experiment 7: observability overhead ----------------------------
  // The pure-observer contract bounds what obs may change (nothing, byte
  // for byte); this bounds what it may cost. Same pipeline three ways —
  // obs off, metrics registry wired in, metrics + the cost-attribution
  // ledger. The true overhead is small (Ledger::record allocates
  // nothing on the hot path), but preemption bursts on a loaded CI host
  // swing short samples by several percent, so the measurement defends
  // in depth: 256 ranks keeps each sample long enough that one burst
  // stays small relative to it, reps interleave the three arms, and the
  // floor accepts either of two independent estimators — best-of mins
  // (each arm's quietest sample) or the median of per-rep paired ratios
  // (adjacent samples share a load regime) — so noise must corrupt both
  // statistics at once to produce a false failure.
  const int obs_ranks = 256;
  const int obs_reps = check ? 9 : 5;
  std::string obs_off_text, obs_on_text, obs_ledger_text;
  double obs_off_s = 1e300, obs_on_s = 1e300, obs_ledger_s = 1e300;
  std::vector<double> obs_on_ratio, obs_ledger_ratio;
  double obs_on_overhead = 0, obs_ledger_overhead = 0;
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  // Check mode gets one escalation: if the first evaluation lands above
  // the floor (a sustained load window can corrupt a whole round), take
  // another full round of reps and re-evaluate over the combined sample.
  for (int attempt = 0; attempt < (check ? 2 : 1); ++attempt) {
    for (int rep = 0; rep < obs_reps; ++rep) {
      const bool first = attempt == 0 && rep == 0;
      std::string* t0 = first ? &obs_off_text : nullptr;
      std::string* t1 = first ? &obs_on_text : nullptr;
      std::string* t2 = first ? &obs_ledger_text : nullptr;
      const double off = obs_overhead_run(*flash, obs_ranks, 0, t0);
      const double on = obs_overhead_run(*flash, obs_ranks, 1, t1);
      const double led = obs_overhead_run(*flash, obs_ranks, 2, t2);
      obs_off_s = std::min(obs_off_s, off);
      obs_on_s = std::min(obs_on_s, on);
      obs_ledger_s = std::min(obs_ledger_s, led);
      obs_on_ratio.push_back(on / off);
      obs_ledger_ratio.push_back(led / off);
    }
    // Two estimators of the same quantity; each arm's reported overhead
    // is the lower (the other one ate noise the true sub-1% signal
    // cannot explain).
    obs_on_overhead =
        std::min(obs_on_s / obs_off_s, median(obs_on_ratio)) - 1.0;
    obs_ledger_overhead =
        std::min(obs_ledger_s / obs_off_s, median(obs_ledger_ratio)) - 1.0;
    if (obs_on_overhead < 0.05 && obs_ledger_overhead < 0.05) break;
  }
  if (obs_on_text != obs_off_text || obs_ledger_text != obs_off_text) {
    std::cerr << "FAIL: report changed with observability wired in "
                 "(pure-observer contract violated)\n";
    return 1;
  }
  std::cout << "obs_overhead FLASH-fbs ranks=" << obs_ranks << "  off "
            << obs_off_s << " s   metrics " << obs_on_s << " s ("
            << obs_on_overhead * 100 << "%)   +ledger " << obs_ledger_s
            << " s (" << obs_ledger_overhead * 100 << "%)\n";

  if (check) {
    if (obs_on_overhead >= 0.05 || obs_ledger_overhead >= 0.05) {
      std::cerr << "FAIL: observability overhead above the 5% bound "
                   "(metrics " << obs_on_overhead * 100 << "%, +ledger "
                << obs_ledger_overhead * 100 << "%)\n";
      return 1;
    }
    if (cl_degraded.records.empty() || cl_stats.mds_failovers != 1 ||
        cl_stats.failover_redirects < 1) {
      std::cerr << "FAIL: cluster failover run must complete degraded with "
                   "one standby promotion (got failovers="
                << cl_stats.mds_failovers
                << ", redirects=" << cl_stats.failover_redirects << ")\n";
      return 1;
    }
    if (cl_stats.degraded_reads == 0) {
      std::cerr << "FAIL: LBANN reads over the dead OST must be degraded\n";
      return 1;
    }
    // Parallel output already proven identical above. Speedup bounds:
    // the algorithmic sweep-vs-scan win holds on any machine; the
    // thread-scaling bound needs real cores to express itself.
    if (sweep_speedup < 5.0) {
      std::cerr << "FAIL: sweep-vs-scan speedup " << sweep_speedup
                << "x below the 5x bound\n";
      return 1;
    }
    // Dense FileId indexing must beat per-record string-map lookups on any
    // host; 1.5x is a deliberately loose floor (typically 5-20x).
    if (intern_speedup < 1.5) {
      std::cerr << "FAIL: interned grouping speedup " << intern_speedup
                << "x below the 1.5x bound\n";
      return 1;
    }
    if (cores >= 2) {
      const double s2 = points[0].seconds / points[1].seconds;
      if (s2 < 1.0) {
        std::cerr << "FAIL: threads=2 slower than threads=1 (" << s2
                  << "x) on a " << cores << "-core host\n";
        return 1;
      }
      std::cout << "threads=2 speedup " << s2 << "x\n";
    } else {
      std::cout << "single-core host: thread-scaling bound skipped "
                   "(outputs still verified identical)\n";
    }
    std::cout << "CHECK PASSED\n";
    return 0;
  }

  std::ofstream os(out_path);
  if (!os) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  os << "{\n"
     << "  \"git_sha\": \"" << sha << "\",\n"
     << "  \"timestamp\": \"" << timestamp << "\",\n"
     << "  \"host\": \"" << host << "\",\n"
     << "  \"hardware_threads\": " << cores << ",\n"
     << "  \"conflict_scaling\": {\n"
     << "    \"files\": " << nfiles << ",\n"
     << "    \"accesses_per_file\": " << per_file << ",\n"
     << "    \"seconds_by_threads\": {";
  for (std::size_t i = 0; i < points.size(); ++i) {
    os << (i ? ", " : "") << "\"" << points[i].threads
       << "\": " << points[i].seconds;
  }
  os << "},\n"
     << "    \"speedup_by_threads\": {";
  for (std::size_t i = 0; i < points.size(); ++i) {
    os << (i ? ", " : "") << "\"" << points[i].threads
       << "\": " << points[0].seconds / points[i].seconds;
  }
  os << "}\n"
     << "  },\n"
     << "  \"sweep_vs_scan\": {\n"
     << "    \"accesses\": " << adversarial_n << ",\n"
     << "    \"sweep_seconds\": " << sweep_s << ",\n"
     << "    \"scan_seconds\": " << scan_s << ",\n"
     << "    \"speedup\": " << sweep_speedup << "\n"
     << "  },\n"
     << "  \"reconstruction_grouping\": {\n"
     << "    \"files\": " << rec_files << ",\n"
     << "    \"records\": " << rec_records << ",\n"
     << "    \"string_keyed_seconds\": " << string_s << ",\n"
     << "    \"interned_seconds\": " << interned_s << ",\n"
     << "    \"speedup\": " << intern_speedup << "\n"
     << "  },\n"
     << "  \"capture_path\": {\n"
     << "    \"roots\": " << cap_roots << ",\n"
     << "    \"rounds\": " << cap_rounds << ",\n"
     << "    \"events\": " << cap.events << ",\n"
     << "    \"seconds\": " << cap.seconds << "\n"
     << "  },\n"
     << "  \"run_to_report\": {\n"
     << "    \"app\": \"FLASH-fbs\",\n"
     << "    \"points\": [";
  for (std::size_t i = 0; i < r2r.size(); ++i) {
    const auto& pt = r2r[i];
    os << (i ? ", " : "") << "{\"app\": \"" << pt.app
       << "\", \"ranks\": " << pt.ranks
       << ", \"records\": " << pt.records
       << ", \"streaming_only\": " << (pt.streaming_only ? "true" : "false")
       << ", \"windowed\": " << (pt.windowed ? "true" : "false");
    if (!pt.streaming_only) {
      os << ", \"capture_seconds\": " << pt.capture_seconds
         << ", \"analysis_seconds\": " << pt.analysis_seconds;
    }
    os << ", \"stream_capture_seconds\": " << pt.stream_capture_seconds
       << ", \"stream_analysis_seconds\": " << pt.stream_analysis_seconds
       << ", \"spill_bytes\": " << pt.spill_bytes
       << ", \"stream_peak_buffered\": " << pt.stream_peak_buffered
       << ", \"stream_rss_kb\": " << pt.stream_rss_kb;
    if (!pt.streaming_only) {
      os << ", \"materialized_rss_kb\": " << pt.materialized_rss_kb;
    }
    if (pt.windowed) {
      os << ", \"live_peak_files\": " << pt.live_peak
         << ", \"retired_accesses\": " << pt.retired;
    }
    os << "}";
  }
  os << "]\n"
     << "  },\n"
     << "  \"memory_scaling\": {\n"
     << "    \"workload\": \"phased N-N checkpoint (synthetic trace, "
        "analysis only)\",\n"
     << "    \"phases\": " << kPhasedPhases << ",\n"
     << "    \"writes_per_rank_per_phase\": " << kPhasedWrites << ",\n"
     << "    \"points\": [";
  for (std::size_t i = 0; i < mem.size(); ++i) {
    const auto& pt = mem[i];
    os << (i ? ", " : "") << "{\"ranks\": " << pt.ranks
       << ", \"records\": " << pt.full.records
       << ", \"full_log_rss_kb\": " << pt.full.rss_kb
       << ", \"windowed_rss_kb\": " << pt.windowed.rss_kb
       << ", \"rss_ratio\": "
       << static_cast<double>(pt.full.rss_kb) /
              static_cast<double>(pt.windowed.rss_kb)
       << ", \"live_peak_files\": " << pt.windowed.live_peak
       << ", \"retired_accesses\": " << pt.windowed.retired
       << ", \"windowed_capture_seconds\": " << pt.windowed.capture_seconds
       << ", \"windowed_analysis_seconds\": " << pt.windowed.analysis_seconds
       << "}";
  }
  os << "]";
  if (ms_full_64k.ok && ms_win_128k.ok) {
    os << ",\n"
       << "    \"scale\": {\"full_log_ranks\": 65536, \"full_log_rss_kb\": "
       << ms_full_64k.rss_kb
       << ", \"windowed_ranks\": 131072, \"windowed_rss_kb\": "
       << ms_win_128k.rss_kb
       << ", \"windowed_live_peak_files\": " << ms_win_128k.live_peak << "}";
  }
  os << "\n"
     << "  },\n"
     << "  \"obs_overhead\": {\n"
     << "    \"app\": \"FLASH-fbs\",\n"
     << "    \"ranks\": " << obs_ranks << ",\n"
     << "    \"reps\": " << obs_reps << ",\n"
     << "    \"off_seconds\": " << obs_off_s << ",\n"
     << "    \"metrics_seconds\": " << obs_on_s << ",\n"
     << "    \"metrics_ledger_seconds\": " << obs_ledger_s << ",\n"
     << "    \"metrics_overhead\": " << obs_on_overhead << ",\n"
     << "    \"metrics_ledger_overhead\": " << obs_ledger_overhead << "\n"
     << "  },\n"
     << "  \"cluster_failover\": {\n"
     << "    \"app\": \"LBANN\",\n"
     << "    \"ranks\": " << cl_cfg.nranks << ",\n"
     << "    \"mds\": " << cl_topo.mds_count << ",\n"
     << "    \"ost\": " << cl_topo.ost_count << ",\n"
     << "    \"healthy_seconds\": " << cl_healthy_s << ",\n"
     << "    \"degraded_seconds\": " << cl_degraded_s << ",\n"
     << "    \"healthy_records_per_second\": "
     << static_cast<double>(cl_healthy.records.size()) / cl_healthy_s << ",\n"
     << "    \"degraded_records_per_second\": "
     << static_cast<double>(cl_degraded.records.size()) / cl_degraded_s
     << ",\n"
     << "    \"healthy_sim_end_ns\": " << sim_end(cl_healthy) << ",\n"
     << "    \"degraded_sim_end_ns\": " << sim_end(cl_degraded) << ",\n"
     << "    \"recover_overhead_sim_ns\": " << cl_recover << ",\n"
     << "    \"mds_failovers\": " << cl_stats.mds_failovers << ",\n"
     << "    \"failover_redirects\": " << cl_stats.failover_redirects << ",\n"
     << "    \"degraded_reads\": " << cl_stats.degraded_reads << "\n"
     << "  }\n"
     << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  bool scale64k = false;
  std::string out = "BENCH_perf.json";
  std::string sha = "unknown";
  std::string timestamp = "unknown";
  std::string host = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--scale64k") == 0) {
      scale64k = true;
    } else if (std::strcmp(argv[i], "--rss-probe") == 0 && i + 2 < argc) {
      const std::string mode = argv[i + 1];
      const int ranks = std::atoi(argv[i + 2]);
      if (ranks < 1) {
        std::cerr << "--rss-probe: RANKS must be >= 1\n";
        return 2;
      }
      const std::string app = i + 3 < argc ? argv[i + 3] : "FLASH-fbs";
      return rss_probe_main(mode, ranks, app);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--sha") == 0 && i + 1 < argc) {
      sha = argv[++i];
    } else if (std::strcmp(argv[i], "--timestamp") == 0 && i + 1 < argc) {
      timestamp = argv[++i];
    } else if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      host = argv[++i];
    } else {
      std::cerr << "usage: bench_perf_scaling [--check] [--scale64k] "
                   "[--out FILE] [--sha SHA] [--timestamp TS] [--host NAME] "
                   "| --rss-probe stream|materialize|windowed RANKS\n";
      return 2;
    }
  }
  return run(check, scale64k, out, sha, timestamp, host);
}
