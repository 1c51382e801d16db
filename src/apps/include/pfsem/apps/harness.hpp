#pragma once
// Run harness: wires one simulated application run together — DES engine,
// MPI world, PFS under test, trace collector — and launches one coroutine
// per rank behind a startup barrier (the paper's time-0 normalization
// point). The result of a run is a TraceBundle, the input of pfsem::core.

#include <functional>
#include <memory>
#include <vector>

#include "pfsem/core/report.hpp"
#include "pfsem/fault/injector.hpp"
#include "pfsem/iolib/context.hpp"
#include "pfsem/mpi/world.hpp"
#include "pfsem/sim/clock.hpp"
#include "pfsem/sim/engine.hpp"
#include "pfsem/trace/collector.hpp"
#include "pfsem/util/rng.hpp"
#include "pfsem/vfs/cluster.hpp"
#include "pfsem/vfs/filesystem.hpp"
#include "pfsem/vfs/pfs.hpp"

namespace pfsem::apps {

/// Below this rank count, CaptureMode::Auto resolves to the reference
/// pair (Reference capture + Heap scheduler). The bucket ring + arenas
/// win on pending-set depth — O(1) vs O(log n) per event — so they need
/// enough in-flight coroutines to pay for their setup. Remeasured after
/// the collective-path fixes (which shrank the shared capture cost both
/// pairs carry): on FLASH-fbs end-to-end capture the reference pair
/// stays ~10-20% faster through 8K ranks and the fast pair pulls ahead
/// by 16K (1.04x there, growing with depth; 2.3x in the isolated
/// scheduler/emitter microbench, whose 32K-root pending set is the
/// regime large runs actually hit). The bench's capture_crossover
/// experiment records the curve below the threshold.
inline constexpr int kAutoCaptureRankThreshold = 16'384;

/// The capture mode Auto resolves to at this rank count (identity for
/// the concrete modes). Pure, so tests can pin the policy on both sides
/// of the threshold without simulating threshold-sized runs; the harness
/// applies it (plus the matching scheduler) before capture starts.
[[nodiscard]] constexpr trace::CaptureMode resolved_capture_mode(
    trace::CaptureMode mode, int nranks) {
  if (mode != trace::CaptureMode::Auto) return mode;
  return nranks < kAutoCaptureRankThreshold ? trace::CaptureMode::Reference
                                            : trace::CaptureMode::Fast;
}

struct AppConfig {
  int nranks = 64;
  int ranks_per_node = 8;
  /// Number of simulated time steps (apps derive dump cadence from this).
  int steps = 100;
  int checkpoint_every = 20;
  /// Nominal per-rank payload of one checkpoint/dump. Scaled down from the
  /// paper's runs (e.g. pF3D's 2 GB/process) to keep traces tractable; the
  /// access *structure* is what the analysis consumes.
  std::uint64_t bytes_per_rank = 256 * 1024;
  std::uint64_t seed = 42;
  /// Capture-path implementation selectors. The defaults are the fast
  /// path; the reference pair (Heap + Reference) is the retained pre-
  /// optimization oracle — both must produce byte-identical bundles
  /// (tests/test_capture_diff.cpp). CaptureMode::Auto picks the whole
  /// pair by rank count (reference below kAutoCaptureRankThreshold, fast
  /// at or above it), overriding `scheduler` — safe precisely because
  /// the pairs are byte-identical.
  sim::SchedulerKind scheduler = sim::SchedulerKind::Bucketed;
  trace::CaptureMode capture = trace::CaptureMode::Fast;
  /// Expected records per rank, used to pre-size the collector's arenas
  /// (0 = derive a heuristic from `steps`). Purely a capacity hint.
  std::size_t ops_per_rank_hint = 0;
  /// Streaming capture (nullptr = materialize, the default): the
  /// collector hands records to this sink in batches of
  /// `stream_chunk_records` instead of accumulating a bundle. Finish the
  /// run with finish_stream() instead of finish(); registry.hpp's
  /// run_app_stream wires both ends. Non-owning.
  trace::StreamSink* stream_sink = nullptr;
  std::size_t stream_chunk_records = std::size_t{1} << 16;
  /// Observability context (nullptr = off, the default). Non-owning: the
  /// driver (CLI, test) owns the Run; the harness wires it into the
  /// engine, collector, injector, and every façade built from ctx(),
  /// and publishes the vfs.* gauges after run().
  obs::Run* obs = nullptr;
};

class Harness {
 public:
  explicit Harness(AppConfig cfg, vfs::PfsConfig pfs_cfg = {},
                   std::vector<sim::ClockModel> clocks = {});
  /// Run against a multi-server PfsCluster backend (docs/topology.md);
  /// enables server fault-domain events in the fault plan.
  Harness(AppConfig cfg, vfs::ClusterConfig cluster_cfg,
          std::vector<sim::ClockModel> clocks = {});
  /// Run against a custom file-system backend (e.g. vfs::BurstBufferPfs).
  Harness(AppConfig cfg, std::unique_ptr<vfs::FileSystem> fs,
          std::vector<sim::ClockModel> clocks = {});

  [[nodiscard]] const AppConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] mpi::World& world() { return world_; }
  /// The file system under test.
  [[nodiscard]] vfs::FileSystem& fs() { return *fs_; }
  /// The default Pfs backend (throws if a custom backend was supplied).
  [[nodiscard]] vfs::Pfs& pfs();
  /// The PfsCluster backend (throws unless built with a ClusterConfig).
  [[nodiscard]] vfs::PfsCluster& cluster();
  /// The PfsCluster backend, or nullptr when another backend is in use.
  [[nodiscard]] vfs::PfsCluster* cluster_or_null() { return concrete_cluster_; }
  [[nodiscard]] trace::Collector& collector() { return collector_; }
  [[nodiscard]] iolib::IoContext ctx() {
    return {&engine_, &world_, fs_.get(), &collector_, injector_.get(),
            retry_, cfg_.obs};
  }

  /// Arm fault injection for this run (call before run()): builds the
  /// injector and wires it into the file system and the MPI world. run()
  /// then schedules the plan's crashes.
  void set_faults(const fault::FaultPlan& plan, std::uint64_t fault_seed);
  /// Retry policy handed to every façade built from ctx().
  void set_retry_policy(iolib::RetryPolicy policy) {
    retry_ = std::move(policy);
  }
  /// nullptr when no faults are armed.
  [[nodiscard]] fault::Injector* injector() { return injector_.get(); }

  /// Stage an input file before the run (visible under every model).
  void preload(const std::string& path, Offset size) {
    fs_->preload(path, size);
  }

  /// A compute phase: `base` plus a small deterministic per-rank jitter,
  /// so ranks drift apart the way real time steps do.
  [[nodiscard]] sim::Task<void> compute(Rank r, SimDuration base);

  /// Deterministic per-rank value in [lo, hi] for workload shaping
  /// (irregular block sizes etc.); depends only on (seed, salt, r).
  [[nodiscard]] std::uint64_t shaped(std::uint64_t salt, Rank r,
                                     std::uint64_t lo, std::uint64_t hi) const;

  /// Spawn `program(r)` for every rank behind a startup barrier and run
  /// the simulation to completion.
  void run(const std::function<sim::Task<void>(Rank)>& program);

  /// Take the captured trace (call after run()).
  [[nodiscard]] trace::TraceBundle finish() { return collector_.take(); }

  /// Finish a streaming run (cfg.stream_sink != nullptr): flush the tail
  /// chunk to the sink and take everything except the records.
  [[nodiscard]] trace::StreamMeta finish_stream() {
    return collector_.take_stream();
  }

 private:
  AppConfig cfg_;
  trace::Collector collector_;
  sim::Engine engine_;
  std::unique_ptr<vfs::FileSystem> fs_;
  vfs::PfsBase* backend_ = nullptr;  // Pfs or PfsCluster; null if custom
  vfs::PfsCluster* concrete_cluster_ = nullptr;  // set for ClusterConfig runs
  mpi::World world_;
  std::vector<Rng> rank_rngs_;
  std::unique_ptr<fault::Injector> injector_;
  iolib::RetryPolicy retry_;
};

/// Convert the injector's run stats into the report's degraded summary
/// (lives here so pfsem::core stays independent of pfsem::fault).
[[nodiscard]] core::DegradedSummary degraded_summary(
    const fault::FaultStats& stats);

}  // namespace pfsem::apps
