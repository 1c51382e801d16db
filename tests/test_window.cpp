// Differential tests for the windowed streaming analysis: every
// registered application, run once through the windowed pipeline
// (StreamAnalyzer::enable_window → per-file retirement at the stream
// frontier → assemble_windowed_report) and once through the materialized
// build-a-bundle path, must produce byte-identical report text and
// structurally identical tuning reports — across thread counts, both
// PFS backends, and fault plans. The materialized path is
// the oracle; retiring files mid-stream must never be observable in the
// output, only in the memory profile.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "pfsem/apps/harness.hpp"
#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/core/stream_analyze.hpp"
#include "pfsem/core/tuning.hpp"
#include "pfsem/fault/plan.hpp"
#include "pfsem/iolib/posix_io.hpp"
#include "pfsem/trace/spill.hpp"

namespace pfsem {
namespace {

apps::AppConfig base_cfg(int ranks) {
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);
  return cfg;
}

std::string report_text(const trace::TraceBundle& bundle, int threads = 1) {
  const auto log = core::reconstruct_accesses(bundle);
  const auto pairs = core::detect_file_overlaps(log, {}, threads);
  const auto conflicts =
      core::detect_conflicts(log, pairs, {.threads = threads});
  const auto rep = core::build_report(bundle, log, conflicts, threads);
  std::ostringstream os;
  core::print_report(rep, os);
  return os.str();
}

core::TuningReport materialized_tuning(const trace::TraceBundle& bundle) {
  const auto log = core::reconstruct_accesses(bundle);
  return core::per_file_tuning(log);
}

struct WindowRun {
  std::string report;            ///< report text from rolling summaries
  core::TuningReport tuning;     ///< from assemble_windowed_tuning
  std::size_t peak_live_files = 0;
  std::uint64_t retired_mid_stream = 0;  ///< before the final sweep
  std::size_t active_files = 0;          ///< summaries with file != kNoFile
};

/// Replay a spilled capture through the analyzer in windowed mode.
/// `file_counts` defaults to the exact per-file budgets; pass an empty
/// vector explicitly to exercise the unknown-budget fallback.
WindowRun windowed_replay(trace::SpillStore& store, trace::StreamMeta meta,
                          std::vector<std::uint64_t> file_counts) {
  core::StreamAnalyzer analyzer(meta.nranks, meta.paths,
                                meta.rank_posix_counts, meta.file_op_counts);
  analyzer.enable_window({}, std::move(file_counts));
  {
    const auto in = store.open_read();
    trace::ChunkReader reader(*in);
    trace::Record rec;
    while (reader.next(rec)) analyzer.feed(rec);
    (void)reader.read_trailer();
  }
  WindowRun out;
  out.retired_mid_stream = analyzer.retired_accesses();
  auto res = analyzer.finish_windowed();
  out.peak_live_files = res.peak_live_files;
  for (const auto& s : res.summaries) {
    out.active_files += s.file != kNoFile ? 1 : 0;
  }
  out.tuning = core::assemble_windowed_tuning(res.summaries);
  const auto rep = core::assemble_windowed_report(
      std::move(res.stats), res.records, res.nranks, res.summaries);
  std::ostringstream os;
  core::print_report(rep, os);
  out.report = os.str();
  return out;
}

WindowRun windowed_run(const apps::AppInfo& info, apps::AppConfig cfg,
                       std::vector<sim::ClockModel> clocks = {},
                       const apps::FaultSetup* faults = nullptr,
                       const vfs::ClusterConfig* ccfg = nullptr) {
  trace::SpillStore store(16u << 10);
  cfg.stream_chunk_records = 64;
  trace::StreamMeta meta;
  {
    trace::ChunkWriter writer(store, cfg.nranks);
    meta = ccfg != nullptr
               ? apps::run_app_cluster_stream(info, writer, cfg, *ccfg,
                                              std::move(clocks), faults)
               : apps::run_app_stream(info, writer, cfg, {},
                                      std::move(clocks), faults);
    writer.finish(meta);
  }
  auto counts = meta.file_posix_counts;
  return windowed_replay(store, std::move(meta), std::move(counts));
}

void expect_tuning_eq(const core::TuningReport& got,
                      const core::TuningReport& want) {
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.relaxed_bytes, want.relaxed_bytes);
  EXPECT_EQ(got.eventual_bytes, want.eventual_bytes);
  ASSERT_EQ(got.files.size(), want.files.size());
  for (std::size_t i = 0; i < got.files.size(); ++i) {
    EXPECT_EQ(got.files[i].path, want.files[i].path);
    EXPECT_EQ(got.files[i].weakest, want.files[i].weakest) << got.files[i].path;
    EXPECT_EQ(got.files[i].bytes, want.files[i].bytes) << got.files[i].path;
    EXPECT_EQ(got.files[i].session_pairs, want.files[i].session_pairs)
        << got.files[i].path;
    EXPECT_EQ(got.files[i].commit_pairs, want.files[i].commit_pairs)
        << got.files[i].path;
  }
}

TEST(WindowDiff, EveryAppWindowedMatchesMaterialized) {
  std::uint64_t retired = 0;
  for (const auto& info : apps::registry()) {
    const auto cfg = base_cfg(8);
    const auto bundle = apps::run_app(info, cfg);
    const auto win = windowed_run(info, cfg);
    ASSERT_EQ(win.report, report_text(bundle)) << info.name;
    expect_tuning_eq(win.tuning, materialized_tuning(bundle));
    retired += win.retired_mid_stream;
  }
  EXPECT_GT(retired, 0u) << "no app retired a single file mid-stream; "
                            "the window never closed over anything";
}

TEST(WindowDiff, ThreadCountsAllByteIdentical) {
  // The windowed pipeline is single-pass by construction; the
  // materialized oracle must agree with it at every thread count.
  const auto& info = *apps::find_app("FLASH-fbs");
  const auto cfg = base_cfg(64);
  const auto bundle = apps::run_app(info, cfg);
  const auto win = windowed_run(info, cfg);
  for (const int threads : {1, 2, 4}) {
    ASSERT_EQ(win.report, report_text(bundle, threads))
        << "threads=" << threads;
  }
}

TEST(WindowDiff, ClusterMdsFailoverMatchesMaterialized) {
  const auto& info = *apps::find_app("GTC");
  apps::FaultSetup setup;
  setup.plan = fault::FaultPlan::parse("crash_mds:id=0,t=1ms");
  setup.seed = 7;
  vfs::ClusterConfig ccfg;
  ccfg.mds_count = 2;
  ccfg.ost_count = 4;
  const auto cfg = base_cfg(8);
  const auto bundle = apps::run_app_cluster(info, cfg, ccfg, {}, &setup);
  const auto win = windowed_run(info, cfg, {}, &setup, &ccfg);
  ASSERT_EQ(win.report, report_text(bundle));
  expect_tuning_eq(win.tuning, materialized_tuning(bundle));
}

TEST(WindowDiff, SkewedClocksMatchMaterialized) {
  const auto& info = *apps::find_app("MACSio");
  const auto cfg = base_cfg(8);
  const auto clocks = sim::make_skewed_clocks(8, 20'000, 100.0, 7);
  const auto bundle = apps::run_app(info, cfg, {}, clocks);
  const auto win = windowed_run(info, cfg, clocks);
  ASSERT_EQ(win.report, report_text(bundle));
}

/// Collective-free phased workload: each rank writes four files strictly
/// one after another, so at any instant only the current phase's files
/// can be live. Shared by the retirement-bound and crash tests.
template <typename Capture>
auto run_phased(apps::AppConfig cfg, const apps::FaultSetup* faults,
                Capture&& capture) {
  apps::Harness h(cfg);
  if (faults != nullptr) h.set_faults(faults->plan, faults->seed);
  iolib::PosixIo posix(h.ctx());
  h.run([&](Rank r) -> sim::Task<void> {
    for (int phase = 0; phase < 4; ++phase) {
      const int fd = co_await posix.open(
          r, "phase" + std::to_string(phase) + "." + std::to_string(r),
          trace::kCreate | trace::kWrOnly);
      for (int i = 0; i < 16; ++i) {
        co_await posix.pwrite(r, fd, static_cast<Offset>(i) * 4096, 4096);
        co_await h.engine().delay(i % 4 == 0 ? 100'000 : 0);
      }
      co_await posix.close(r, fd);
    }
  });
  return capture(h);
}

TEST(WindowDiff, PhasedWorkloadBoundsLiveWindow) {
  // The phased workload touches 32 files but never more than one phase
  // at a time; the live window must stay well below the file count, and
  // the retired accesses must be freed mid-stream, not at finish.
  trace::SpillStore store(1u << 20);
  auto cfg = base_cfg(8);
  trace::StreamMeta meta;
  {
    trace::ChunkWriter writer(store, cfg.nranks);
    auto streamed = cfg;
    streamed.stream_sink = &writer;
    streamed.stream_chunk_records = 64;
    meta = run_phased(streamed, nullptr,
                      [](apps::Harness& h) { return h.finish_stream(); });
    writer.finish(meta);
  }
  auto counts = meta.file_posix_counts;
  const auto win = windowed_replay(store, std::move(meta), std::move(counts));
  EXPECT_EQ(win.active_files, 32u);
  EXPECT_LT(win.peak_live_files, win.active_files);
  EXPECT_GT(win.retired_mid_stream, 0u);
  // And the oracle: the same workload materialized.
  const auto bundle = run_phased(
      cfg, nullptr, [](apps::Harness& h) { return h.collector().take(); });
  ASSERT_EQ(win.report, report_text(bundle));
}

TEST(WindowDiff, CrashedRankOpenFdsDeferToFinalSweep) {
  // Rank 3 dies mid-phase (no collectives, so the survivors finish) and
  // never closes its file: the open-fd guard must keep that file in the
  // window until the final sweep, and the output must still match the
  // materialized analysis of the surviving trace byte for byte.
  apps::FaultSetup setup;
  setup.plan = fault::FaultPlan::parse("crash:rank=3,t=2ms");
  setup.seed = 11;
  trace::SpillStore store(1u << 20);
  auto cfg = base_cfg(8);
  trace::StreamMeta meta;
  {
    trace::ChunkWriter writer(store, cfg.nranks);
    auto streamed = cfg;
    streamed.stream_sink = &writer;
    streamed.stream_chunk_records = 64;
    meta = run_phased(streamed, &setup,
                      [](apps::Harness& h) { return h.finish_stream(); });
    writer.finish(meta);
  }
  auto counts = meta.file_posix_counts;
  const auto win = windowed_replay(store, std::move(meta), std::move(counts));
  const auto bundle = run_phased(
      cfg, &setup, [](apps::Harness& h) { return h.collector().take(); });
  ASSERT_LT(bundle.records.size(), 8u * 4u * 18u)
      << "the crash must cut rank 3 short";
  ASSERT_EQ(win.report, report_text(bundle));
  expect_tuning_eq(win.tuning, materialized_tuning(bundle));
  // Surviving ranks' files still retire mid-stream around the crash.
  EXPECT_GT(win.retired_mid_stream, 0u);
}

TEST(WindowDiff, UnknownFileBudgetsFallBackSafely) {
  // Empty per-file counts = unknown: nothing may retire mid-stream, and
  // the final sweep must still produce the identical report.
  const auto& info = *apps::find_app("FLASH-fbs");
  const auto cfg = base_cfg(8);
  trace::SpillStore store(1u << 20);
  trace::StreamMeta meta;
  {
    trace::ChunkWriter writer(store, cfg.nranks);
    auto streamed = cfg;
    streamed.stream_chunk_records = 64;
    meta = apps::run_app_stream(info, writer, streamed);
    writer.finish(meta);
  }
  const auto win = windowed_replay(store, std::move(meta), /*file_counts=*/{});
  EXPECT_EQ(win.retired_mid_stream, 0u);
  ASSERT_EQ(win.report, report_text(apps::run_app(info, cfg)));
}

}  // namespace
}  // namespace pfsem
