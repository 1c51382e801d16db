// obs::Ledger / JSON export / obs-diff tests:
//
//  1. Ledger reduction semantics — order-independent sums, lowest-rank
//     hottest-rank tie-break, condense() freeing the rank dimension, and
//     the record-after-condense guard.
//  2. Early (window-retirement) vs late (export-time) condensation is
//     byte-identical: the reductions commute with interleaving. A
//     windowed FLASH-fbs drain proves retirement really condenses files
//     (and frees their rank cells) mid-stream.
//  3. The versioned JSON export format is pinned by fixture, and its
//     stable section is byte-identical across analysis thread counts and
//     capture pipelines (materialized, streaming) with the ledger enabled.
//  4. obs-diff policy: exact on the stable section, threshold-gated on
//     volatile metrics and ledger rows, version exact, manifest informational.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>

#include "pfsem/apps/harness.hpp"
#include "pfsem/apps/registry.hpp"
#include "pfsem/core/stream_analyze.hpp"
#include "pfsem/obs/diff.hpp"
#include "pfsem/obs/export.hpp"
#include "pfsem/obs/ledger.hpp"
#include "pfsem/obs/obs.hpp"
#include "pfsem/trace/spill.hpp"
#include "pfsem/util/error.hpp"

namespace {

using namespace pfsem;

obs::LedgerOp op(obs::OpClass cls, FileId f, Rank r, SimDuration stall,
                 std::uint64_t bytes = 0) {
  obs::LedgerOp o;
  o.cls = cls;
  o.file = f;
  o.rank = r;
  o.stall_ns = stall;
  o.bytes = bytes;
  return o;
}

// --- ledger reduction semantics -------------------------------------------

TEST(Ledger, AccumulatesAndCondenses) {
  obs::Ledger led;
  led.record(op(obs::OpClass::Write, 0, 2, 100, 64));
  led.record(op(obs::OpClass::Write, 0, 1, 300, 32));
  led.record(op(obs::OpClass::Read, 0, 2, 50, 16));
  led.record(op(obs::OpClass::Meta, 3, 0, 10));
  EXPECT_EQ(led.touched_files(), 2u);
  EXPECT_GT(led.live_rank_cells(), 0u);

  led.condense_all();
  EXPECT_EQ(led.live_rank_cells(), 0u) << "condense frees the rank dimension";

  int seen = 0;
  led.for_each([&](FileId f, const obs::Ledger::Entry& e) {
    ++seen;
    if (f == 0) {
      EXPECT_EQ(e.ranks_touched, 2u);
      EXPECT_EQ(e.hottest_rank, 1);
      EXPECT_EQ(e.hottest_rank_stall_ns, 300);
      EXPECT_EQ(e.total_stall_ns(), 450u);
      EXPECT_EQ(e.total_ops(), 3u);
      const auto& w = e.cells[static_cast<std::size_t>(obs::OpClass::Write)];
      EXPECT_EQ(w.ops, 2u);
      EXPECT_EQ(w.bytes, 96u);
      EXPECT_EQ(w.stall_ns, 400u);
    } else {
      EXPECT_EQ(f, 3u);
      EXPECT_EQ(e.ranks_touched, 1u);
      EXPECT_EQ(e.hottest_rank, 0);
    }
  });
  EXPECT_EQ(seen, 2) << "for_each visits touched files only, in FileId order";
}

TEST(Ledger, HottestRankTieBreaksToLowestRank) {
  obs::Ledger led;
  led.record(op(obs::OpClass::Write, 0, 5, 200));
  led.record(op(obs::OpClass::Write, 0, 3, 200));
  led.record(op(obs::OpClass::Write, 0, 7, 200));
  led.condense(0);
  led.for_each([&](FileId, const obs::Ledger::Entry& e) {
    EXPECT_EQ(e.hottest_rank, 3) << "equal stalls resolve to the lowest rank";
  });
}

TEST(Ledger, DropsNoFileAndGuardsCondensedFiles) {
  obs::Ledger led;
  led.record(op(obs::OpClass::Meta, kNoFile, 0, 10));
  EXPECT_TRUE(led.empty()) << "getcwd/umask-style ops carry no file";

  led.record(op(obs::OpClass::Write, 1, 0, 10));
  led.condense(1);
  EXPECT_THROW(led.record(op(obs::OpClass::Write, 1, 0, 10)), Error)
      << "a record after its file condensed means retirement fired too early";
}

// Early (per-file, mid-stream, interleaved) vs late (condense_all at
// export) condensation must agree byte for byte — this is what lets
// windowed runs free the rank dimension progressively while staying on
// the materialized oracle's bytes.
TEST(Ledger, EarlyAndLateCondensationAgree) {
  auto feed = [](obs::Ledger& led, bool early) {
    led.record(op(obs::OpClass::Write, 0, 1, 100, 8));
    led.record(op(obs::OpClass::Write, 1, 2, 70, 4));
    led.record(op(obs::OpClass::Sync, 0, 0, 40));
    if (early) led.condense(0);
    led.record(op(obs::OpClass::Read, 1, 0, 30, 2));
    if (early) led.condense(1);
    led.condense_all();  // idempotent on already-condensed files
  };
  obs::Ledger early, late;
  feed(early, true);
  feed(late, false);

  auto render = [](obs::Ledger& led) {
    obs::Run run(obs::Config{.metrics = true, .ledger = true});
    run.ledger = std::move(led);
    std::ostringstream os;
    obs::write_obs_json(os, run, {{"fixture", "early-vs-late"}});
    return os.str();
  };
  EXPECT_EQ(render(early), render(late));
}

// --- JSON export -----------------------------------------------------------

TEST(ObsExport, JsonStringEscapes) {
  std::ostringstream os;
  obs::write_json_string(os, "a\"b\\c\n\t\x01z");
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
}

// The export format is versioned and pinned: any byte-level change to
// the layout below must bump kObsJsonVersion and update this fixture.
TEST(ObsExport, LedgerSectionPinnedByFixture) {
  obs::Run run(obs::Config{.metrics = true, .ledger = true});
  run.ledger.record(op(obs::OpClass::Write, 0, 1, 250, 128));
  run.ledger.record(op(obs::OpClass::Open, 0, 0, 30));
  run.ledger.note_path(0, "ckpt.h5");

  std::ostringstream os;
  obs::write_obs_json(os, run, {{"k", "v"}});
  const std::string json = os.str();

  const std::string head =
      "{\n"
      "\"pfsem_obs_version\": 1,\n"
      "\"manifest\": {\n"
      "  \"k\": \"v\"\n"
      "},\n"
      "\"stable\": {\n"
      "  \"ledger\": [\n";
  ASSERT_EQ(json.substr(0, head.size()), head);

  const std::string row =
      "    {\"file\": \"ckpt.h5\", \"id\": 0, \"ranks\": 2, "
      "\"hottest_rank\": 1, \"hottest_rank_stall_ns\": 250, \"classes\": "
      "{\"open\": {\"ops\": 1, \"stall_ns\": 30, \"bytes\": 0, "
      "\"lock_requests\": 0, \"lock_revocations\": 0, \"meta_rpcs\": 0, "
      "\"ost_bytes\": 0, \"retries\": 0, \"failovers\": 0}, "
      "\"write\": {\"ops\": 1, \"stall_ns\": 250, \"bytes\": 128, "
      "\"lock_requests\": 0, \"lock_revocations\": 0, \"meta_rpcs\": 0, "
      "\"ost_bytes\": 0, \"retries\": 0, \"failovers\": 0}}}\n";
  EXPECT_NE(json.find(row), std::string::npos) << json.substr(0, 2000);

  // The document round-trips through the diff parser (self-diff is clean).
  const auto self = obs::diff_obs_json(json, json, {});
  EXPECT_TRUE(self.ok);
  EXPECT_TRUE(self.regressions.empty());
}

/// Discards streamed records: the ledger is filled during capture.
class NullSink final : public trace::StreamSink {
 public:
  void on_records(std::uint64_t, std::span<const trace::Record>) override {}
};

/// One full simulated run with metrics + ledger, captured into a bundle
/// or streamed out in small chunks; returns the export.
std::string obs_json(int threads, bool streamed) {
  obs::Run run(obs::Config{.metrics = true, .ledger = true});
  const auto* info = apps::find_app("pF3D-IO");
  EXPECT_NE(info, nullptr);
  apps::AppConfig cfg;
  cfg.nranks = 8;
  cfg.ranks_per_node = 4;
  cfg.obs = &run;
  if (streamed) {
    NullSink sink;
    cfg.stream_chunk_records = 64;
    (void)apps::run_app_stream(*info, sink, cfg);
  } else {
    (void)apps::run_app(*info, cfg);
  }
  (void)threads;  // the capture side is thread-free; knob kept for symmetry

  std::ostringstream os;
  obs::write_obs_json(os, run, {{"fixture", "invariance"}});
  return os.str();
}

/// Cut the "stable" section out of an export (manifest and volatile
/// metrics legitimately vary with the knobs).
std::string stable_section(const std::string& json) {
  const auto a = json.find("\"stable\"");
  const auto b = json.find("\"volatile\"");
  EXPECT_NE(a, std::string::npos);
  EXPECT_NE(b, std::string::npos);
  return json.substr(a, b - a);
}

/// Export of a FLASH-fbs run with the ledger on. Materialized, the
/// ledger condenses every file at export time. Streamed, the spill is
/// drained through the windowed analyzer whose retirement hook
/// condenses each file as it leaves the window — the CLI's
/// `report --stream` wiring. `freed_mid_stream` counts the rank cells
/// that retirement freed before the final sweep.
std::string flash_ledger_json(bool windowed,
                              std::size_t* freed_mid_stream = nullptr) {
  obs::Run run(obs::Config{.metrics = true, .ledger = true});
  const auto* info = apps::find_app("FLASH-fbs");
  EXPECT_NE(info, nullptr);
  apps::AppConfig cfg;
  cfg.nranks = 16;
  cfg.ranks_per_node = 4;
  cfg.obs = &run;
  if (!windowed) {
    (void)apps::run_app(*info, cfg);
  } else {
    trace::SpillStore store;
    trace::StreamMeta meta;
    cfg.stream_chunk_records = 64;
    {
      trace::ChunkWriter writer(store, cfg.nranks);
      meta = apps::run_app_stream(*info, writer, cfg);
      writer.finish(meta);
    }
    const std::size_t captured = run.ledger.live_rank_cells();
    EXPECT_GT(captured, 0u) << "the capture filled no rank cells";
    bool draining = false;
    std::size_t freed = 0, retired_mid_stream = 0;
    core::WindowAnalysisOptions wopts;
    wopts.on_retire = [&](FileId f, std::size_t, SimTime) {
      const std::size_t before = run.ledger.live_rank_cells();
      run.ledger.condense(f);
      const std::size_t after = run.ledger.live_rank_cells();
      EXPECT_LE(after, before);
      if (!draining) {
        freed += before - after;
        ++retired_mid_stream;
      }
    };
    core::StreamAnalyzer analyzer(meta.nranks, meta.paths,
                                  meta.rank_posix_counts, meta.file_op_counts);
    analyzer.enable_window(std::move(wopts), meta.file_posix_counts);
    const auto in = store.open_read();
    trace::ChunkReader reader(*in);
    trace::Record rec;
    while (reader.next(rec)) analyzer.feed(rec);
    (void)reader.read_trailer();
    draining = true;
    (void)analyzer.finish_windowed();
    EXPECT_GT(retired_mid_stream, 0u) << "no file left the window mid-stream";
    EXPECT_EQ(run.ledger.live_rank_cells(), 0u)
        << "every file retired, so no rank cell may outlive the drain";
    if (freed_mid_stream != nullptr) *freed_mid_stream = freed;
  }
  std::ostringstream os;
  obs::write_obs_json(os, run, {{"fixture", "window"}});
  return os.str();
}

TEST(Ledger, WindowRetirementCondensesMidStreamAndMatchesExportTime) {
  std::size_t freed = 0;
  const std::string windowed = flash_ledger_json(true, &freed);
  EXPECT_GT(freed, 0u)
      << "window retirement must free ledger rank cells before the drain ends";
  const std::string materialized = flash_ledger_json(false);
  EXPECT_NE(materialized.find("\"ledger\": [\n"), std::string::npos);
  EXPECT_EQ(stable_section(windowed), stable_section(materialized));
}

TEST(ObsExport, StableSectionIdenticalAcrossThreadsAndCapture) {
  const std::string baseline =
      stable_section(obs_json(/*threads=*/1, /*streamed=*/false));
  EXPECT_NE(baseline.find("\"ledger\""), std::string::npos);
  EXPECT_EQ(stable_section(obs_json(4, false)), baseline);
  EXPECT_EQ(stable_section(obs_json(1, true)), baseline);
  EXPECT_EQ(stable_section(obs_json(4, true)), baseline);
}

// --- obs-diff policy -------------------------------------------------------

std::string doc(const std::string& stable_counters,
                const std::string& vol_counters,
                const std::string& ledger = "",
                const std::string& version = "1",
                const std::string& manifest = "\"seed\": \"42\"") {
  return "{\n\"pfsem_obs_version\": " + version + ",\n\"manifest\": {\n  " +
         manifest + "\n},\n\"stable\": {\n  \"ledger\": [" + ledger +
         "],\n  \"counters\": {" + stable_counters +
         "},\n  \"gauges\": {},\n  \"hists\": {}\n},\n\"volatile\": {\n  "
         "\"counters\": {" +
         vol_counters + "},\n  \"gauges\": {},\n  \"hists\": {}\n}\n}\n";
}

TEST(ObsDiff, IdenticalDocumentsPass) {
  const std::string a = doc("\"io.ops\": 100", "\"pool.steals\": 5");
  const auto res = obs::diff_obs_json(a, a, {});
  EXPECT_TRUE(res.ok);
}

TEST(ObsDiff, VersionMismatchIsTheOnlyRegressionReported) {
  const auto res = obs::diff_obs_json(doc("", ""), doc("", "", "", "2"), {});
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.regressions.size(), 1u);
  EXPECT_NE(res.regressions[0].find("version"), std::string::npos);
}

TEST(ObsDiff, StableMetricsAreExactEvenBelowThreshold) {
  const auto res = obs::diff_obs_json(doc("\"io.ops\": 1000", ""),
                                      doc("\"io.ops\": 1001", ""), {});
  EXPECT_FALSE(res.ok) << "0.1% drift on a stable metric is still a "
                          "determinism break";
}

TEST(ObsDiff, VolatileMetricsAreThresholdGated) {
  // 4% under the default 5% gate: pass. 10%: regression.
  EXPECT_TRUE(obs::diff_obs_json(doc("", "\"pool.ns\": 100"),
                                 doc("", "\"pool.ns\": 104"), {})
                  .ok);
  EXPECT_FALSE(obs::diff_obs_json(doc("", "\"pool.ns\": 100"),
                                  doc("", "\"pool.ns\": 110"), {})
                   .ok);
  // A tighter explicit threshold flips the 4% case.
  EXPECT_FALSE(obs::diff_obs_json(doc("", "\"pool.ns\": 100"),
                                  doc("", "\"pool.ns\": 104"),
                                  {.threshold = 0.01})
                   .ok);
}

TEST(ObsDiff, LedgerRowsAreKeyedByFileAndGated) {
  auto row = [](const char* stall) {
    return std::string("{\"file\": \"a\", \"id\": 0, \"ranks\": 1, "
                       "\"hottest_rank\": 0, \"hottest_rank_stall_ns\": ") +
           stall + ", \"classes\": {\"write\": {\"ops\": 10, \"stall_ns\": " +
           stall + "}}}";
  };
  EXPECT_TRUE(obs::diff_obs_json(doc("", "", row("1000")),
                                 doc("", "", row("1030")), {})
                  .ok)
      << "3% stall drift on a cost row rides under the gate";
  const auto res = obs::diff_obs_json(doc("", "", row("1000")),
                                      doc("", "", row("1200")), {});
  EXPECT_FALSE(res.ok);
  ASSERT_FALSE(res.regressions.empty());
  EXPECT_NE(res.regressions[0].find("ledger a "), std::string::npos);

  // A row present in A but missing from B is a regression (and vice versa).
  EXPECT_FALSE(obs::diff_obs_json(doc("", "", row("1000")), doc("", ""), {})
                   .ok);
}

TEST(ObsDiff, ManifestDifferencesAreNotesNotRegressions) {
  const auto res = obs::diff_obs_json(
      doc("", "", "", "1", "\"seed\": \"42\""),
      doc("", "", "", "1", "\"seed\": \"43\""), {});
  EXPECT_TRUE(res.ok) << "the manifest records knobs, it never gates";
  EXPECT_FALSE(res.notes.empty());
}

TEST(ObsDiff, MalformedInputThrows) {
  EXPECT_THROW((void)obs::diff_obs_json("{", "{}", {}), Error);
  EXPECT_THROW((void)obs::diff_obs_json("{}", "{}", {}), Error)
      << "a document without pfsem_obs_version is not an obs export";
}

}  // namespace
