// Golden capture oracle: the compact-v2 bytes and the report text of
// every registered application, reduced to FNV-1a-64 digests and pinned.
// A digest moves when anything on the capture path changes an output
// byte: event firing order in sim::Engine, emission order or clock
// conversion in trace::Collector, the simulated MPI and I/O stack above
// them. Refactors of that path (a new scheduler, a new emitter) must keep
// every pin.
//
// Configurations: every app at 8 and 64 ranks, report text at 8 ranks,
// skewed clocks, transient faults with retries, an MDS crash with
// standby failover on the multi-server PfsCluster, and a fail-stop rank
// crash unwinding TaskKilled through the real I/O stack.
//
// A mismatch prints the new digest; re-pin only when the output is meant
// to change.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>

#include "pfsem/apps/harness.hpp"
#include "pfsem/apps/registry.hpp"
#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/core/report.hpp"
#include "pfsem/fault/plan.hpp"
#include "pfsem/iolib/posix_io.hpp"
#include "pfsem/trace/serialize.hpp"

namespace pfsem {
namespace {

/// FNV-1a, 64-bit.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

apps::AppConfig cfg_for(int ranks) {
  apps::AppConfig cfg;
  cfg.nranks = ranks;
  cfg.ranks_per_node = std::max(1, ranks / 8);
  return cfg;
}

std::uint64_t bundle_digest(const trace::TraceBundle& bundle) {
  std::ostringstream os(std::ios::binary);
  trace::write_compact(bundle, os);
  return fnv1a64(os.str());
}

std::uint64_t report_digest(const trace::TraceBundle& bundle) {
  const auto log = core::reconstruct_accesses(bundle);
  const auto pairs = core::detect_file_overlaps(log);
  const auto conflicts = core::detect_conflicts(log, pairs, {});
  const auto rep = core::build_report(bundle, log, conflicts);
  std::ostringstream os;
  core::print_report(rep, os);
  return fnv1a64(os.str());
}

/// Pinned digests for one registered application, in registry order.
struct AppPins {
  std::string_view app;
  std::uint64_t bundle8;         ///< compact-v2 bytes, 8 ranks
  std::uint64_t bundle64;        ///< compact-v2 bytes, 64 ranks
  std::uint64_t report8;         ///< report text, 8 ranks
  std::uint64_t failover_bundle;  ///< MDS failover on PfsCluster, 8 ranks
  std::uint64_t failover_report;
};

// clang-format off
constexpr AppPins kAppPins[] = {
    {"FLASH-fbs",
     0x439ba39d89ae7a34, 0xc079747c14b40bd8, 0x5852d76fee9e0579,
     0xde50ed9bc84505e6, 0x4910dc53c98ac03e},
    {"FLASH-nofbs",
     0xeaa3f9de15047c57, 0x048990c7a8c15f66, 0xf163d234ec1cd7a8,
     0x97dac52955c57e53, 0x2943b8b2047c66af},
    {"ENZO",
     0xaffdd3ecb71f3ae1, 0xbdcf7d7c5345ced3, 0xb9bce1a6adfe0587,
     0x8eb7d6fdf9fc7662, 0xb9bce1a6adfe0587},
    {"NWChem",
     0x260aac099ca3f7aa, 0xcf33cf9a72b5478e, 0x66a8105d3be786a3,
     0x260aac099ca3f7aa, 0x66a8105d3be786a3},
    {"pF3D-IO",
     0x0d1d1dc197eec3ff, 0xb03177b0b9dbc3a1, 0x962c9959256f1fea,
     0x0d1d1dc197eec3ff, 0x962c9959256f1fea},
    {"MACSio",
     0x8faf4c3104bfa057, 0x8c63eccbba799cde, 0xca188f84630be8f5,
     0x26c30edec52a8956, 0xba73f60c94d7a6bc},
    {"GAMESS",
     0xf8021375f4cd55af, 0x350d9cc6ee8bc807, 0x95c94dd002dfe148,
     0xf8021375f4cd55af, 0x95c94dd002dfe148},
    {"LAMMPS-ADIOS",
     0x16d78e80ef7e7246, 0xacdddd2f9d5ba59b, 0xa1ff0f645c490d01,
     0x16d78e80ef7e7246, 0xa1ff0f645c490d01},
    {"LAMMPS-NetCDF",
     0xa31cf93811f45ff4, 0x9e50d63bc879a7ac, 0x8930bf7039d039f3,
     0xa31cf93811f45ff4, 0x8930bf7039d039f3},
    {"LAMMPS-HDF5",
     0x77c3b50b98510d08, 0x4665fa9723dded35, 0x4822ceea2459ab3f,
     0xb0116d3f5b856883, 0x0972440e87df5e28},
    {"LAMMPS-MPIIO",
     0x88c45572f4062f9c, 0xdfd93b0daf7eeefd, 0x513fc8372993b76d,
     0x5bc895f87a0cbe19, 0xdd29403b26fe8a58},
    {"LAMMPS-POSIX",
     0x841da5191ff77719, 0x40c1e577dbe1dea6, 0x6fb45ef7482d5806,
     0x841da5191ff77719, 0x6fb45ef7482d5806},
    {"MILC-QCD Serial",
     0x45cda9da8e270efc, 0xca08e80c6742e421, 0xd091425828146f31,
     0xfd4464311aca3586, 0x62ee8330a1f78552},
    {"MILC-QCD Parallel",
     0xecd22e29c43d99e3, 0x7aad17bf863b8ff7, 0x03c517054530d2ea,
     0x9d764f012ad743e9, 0x14dab38fbdcd947b},
    {"ParaDiS-HDF5",
     0x5d98ee3635d3c219, 0x63c1b6f87f1b4591, 0x8274bfe0575c9282,
     0xbd9a84332a6c656c, 0xabc60bdedb37f707},
    {"ParaDiS-POSIX",
     0xc6dca0ef8900bb7c, 0x3ef9d80ac5508b06, 0xf2296f34841379e9,
     0xe84068516311b895, 0xfd452a5b075a2496},
    {"VASP",
     0x76c07158de7d63b4, 0x507f31c913bcfe83, 0x260637e37ac71da6,
     0x76c07158de7d63b4, 0x260637e37ac71da6},
    {"LBANN",
     0x8153a058b09fae31, 0xcf9600b3fdf2b8d6, 0x79763454f558e37c,
     0xa261e7bb16058143, 0x4a1046be1484b9a7},
    {"QMCPACK",
     0xc3ceccb3792b3fbc, 0x3a6ddf28ef2ff1df, 0x3e3165ed95795384,
     0xcf2e8e88d20404a2, 0xcc7b40c04a089f35},
    {"Nek5000",
     0x10b2f14bccb32c06, 0x33acdeefc92bb358, 0x3592907aac891f35,
     0x211deb6d1eac6169, 0x3592907aac891f35},
    {"GTC",
     0xa14ea5fa1d04f112, 0xf8e9f8d50a18e990, 0x1f3413a4fdfb318a,
     0xa14ea5fa1d04f112, 0x1f3413a4fdfb318a},
    {"Chombo",
     0xbfa6f0f4385d2e75, 0x09c61d14fc2134ed, 0x5639da9094db511f,
     0xbfa6f0f4385d2e75, 0x5639da9094db511f},
    {"HACC-IO MPI-IO",
     0xd15a7d3ba3033214, 0x98807557d56eb220, 0x6ba83c0b93a001b2,
     0xd15a7d3ba3033214, 0x6ba83c0b93a001b2},
    {"HACC-IO POSIX",
     0xb4ba84e155865615, 0x06687744df83fbad, 0x2e1a73d51d133514,
     0xb4ba84e155865615, 0x2e1a73d51d133514},
    {"VPIC-IO",
     0x901c172c159c959c, 0x81fb5373572ca29a, 0xc54f88550d4dbbbf,
     0x74b051c8d5cde625, 0xc54f88550d4dbbbf},
};
// clang-format on

// Single-configuration pins.
constexpr std::uint64_t kSkew8 = 0xc8e632a59ca161e4;
constexpr std::uint64_t kSkew64 = 0x80db1655b856c8ca;
constexpr std::uint64_t kFaultsBundle = 0x9194ca2dd911e9d4;
constexpr std::uint64_t kFaultsReport = 0x110f0a3e019b8796;
constexpr std::uint64_t kCrashBundle = 0x9c3d9e275450c095;

/// The registry and the pin table must list the same apps in the same
/// order, so a new app cannot slip in unpinned.
void expect_table_covers_registry() {
  const auto& reg = apps::registry();
  ASSERT_EQ(reg.size(), std::size(kAppPins));
  for (std::size_t i = 0; i < reg.size(); ++i) {
    ASSERT_EQ(reg[i].name, kAppPins[i].app) << "row " << i;
  }
}

#define EXPECT_PIN(actual, pinned, what) \
  EXPECT_EQ(hex(actual), hex(pinned)) << "pin " << what

TEST(GoldenCapture, EveryAppBundleMatchesPinnedDigest) {
  expect_table_covers_registry();
  std::size_t i = 0;
  for (const auto& info : apps::registry()) {
    const AppPins& pin = kAppPins[i++];
    for (const int ranks : {8, 64}) {
      const auto bundle = apps::run_app(info, cfg_for(ranks));
      EXPECT_PIN(bundle_digest(bundle), ranks == 8 ? pin.bundle8 : pin.bundle64,
                 info.name << " bundle" << ranks);
      // The per-file column hints must cover the whole path table and
      // tally exactly the file-carrying records.
      ASSERT_EQ(bundle.file_op_counts.size(), bundle.paths.size()) << info.name;
      std::size_t tallied = 0, with_file = 0;
      for (const auto c : bundle.file_op_counts) tallied += c;
      for (const auto& r : bundle.records) with_file += r.file != kNoFile;
      ASSERT_EQ(tallied, with_file) << info.name;
    }
  }
}

TEST(GoldenCapture, EveryAppReportMatchesPinnedDigest) {
  expect_table_covers_registry();
  std::size_t i = 0;
  for (const auto& info : apps::registry()) {
    const AppPins& pin = kAppPins[i++];
    EXPECT_PIN(report_digest(apps::run_app(info, cfg_for(8))), pin.report8,
               info.name << " report8");
  }
}

TEST(GoldenCapture, SkewedClocksMatchPinnedDigest) {
  // Clock conversion happens at emit time; per-rank skew and drift must
  // land the same local timestamps in the trace.
  const auto& info = *apps::find_app("FLASH-fbs");
  for (const int ranks : {8, 64}) {
    const auto clocks = sim::make_skewed_clocks(ranks, 20'000, 100.0, 7);
    EXPECT_PIN(bundle_digest(apps::run_app(info, cfg_for(ranks), {}, clocks)),
               ranks == 8 ? kSkew8 : kSkew64, "skew" << ranks);
  }
}

TEST(GoldenCapture, TransientFaultsMatchPinnedDigest) {
  // Retried EIO faults, slowdowns, and MPI drops perturb timing and event
  // interleaving; the same plan and seed must replay the same bytes.
  const auto& info = *apps::find_app("MACSio");
  apps::FaultSetup setup;
  setup.plan = fault::FaultPlan::parse(
      "eio:p=0.03,ops=data; slow:factor=6,from=0,to=4ms;"
      "drop:p=0.1,timeout=500us");
  setup.seed = 11;
  setup.retry.max_attempts = 4;
  const auto bundle = apps::run_app(info, cfg_for(8), {}, {}, &setup);
  EXPECT_PIN(bundle_digest(bundle), kFaultsBundle, "faults bundle");
  EXPECT_PIN(report_digest(bundle), kFaultsReport, "faults report");
}

TEST(GoldenCapture, ClusterMdsFailoverMatchesPinnedDigest) {
  // Server fault domains on the multi-server backend: an MDS crash plus
  // standby failover (with its EHOSTDOWN redirect and backoff), for every
  // registered application.
  expect_table_covers_registry();
  apps::FaultSetup setup;
  setup.plan = fault::FaultPlan::parse("crash_mds:id=0,t=1ms");
  setup.seed = 7;
  vfs::ClusterConfig ccfg;
  ccfg.mds_count = 2;
  ccfg.ost_count = 4;
  std::size_t i = 0;
  for (const auto& info : apps::registry()) {
    const AppPins& pin = kAppPins[i++];
    fault::FaultStats stats;
    const auto bundle =
        apps::run_app_cluster(info, cfg_for(8), ccfg, {}, &setup, &stats);
    EXPECT_PIN(bundle_digest(bundle), pin.failover_bundle,
               info.name << " failover_bundle");
    EXPECT_PIN(report_digest(bundle), pin.failover_report,
               info.name << " failover_report");
    ASSERT_EQ(stats.server_crashes, 1u) << info.name;
  }
}

TEST(GoldenCapture, CrashLeavesPinnedSurvivingTrace) {
  // A fail-stop crash kills rank 3 mid-run (TaskKilled propagates out of a
  // same-time delay(0) cohort inside the write loop). The workload has no
  // collectives, so the survivors finish.
  apps::Harness h(cfg_for(8));
  h.set_faults(fault::FaultPlan::parse("crash:rank=3,t=2ms"),
               /*fault_seed=*/11);
  iolib::PosixIo posix(h.ctx());
  h.run([&](Rank r) -> sim::Task<void> {
    const int fd = co_await posix.open(
        r, "out." + std::to_string(r), trace::kCreate | trace::kWrOnly);
    for (int i = 0; i < 64; ++i) {
      co_await posix.pwrite(r, fd, static_cast<Offset>(i) * 4096, 4096);
      co_await h.engine().delay(i % 4 == 0 ? 100'000 : 0);
    }
    co_await posix.close(r, fd);
  });
  const auto bundle = h.collector().take();
  EXPECT_PIN(bundle_digest(bundle), kCrashBundle, "crash");
  ASSERT_LT(bundle.records.size(), 8u * 66u) << "the crash must cut rank 3 short";
}

}  // namespace
}  // namespace pfsem
