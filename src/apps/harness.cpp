#include "pfsem/apps/harness.hpp"

#include <algorithm>

#include "pfsem/util/error.hpp"

namespace pfsem::apps {

namespace {

/// Resolve CaptureMode::Auto into a concrete capture/scheduler pair
/// before anything reads the config (the collector refuses Auto).
AppConfig resolve_capture(AppConfig cfg) {
  if (cfg.capture == trace::CaptureMode::Auto) {
    cfg.capture = resolved_capture_mode(cfg.capture, cfg.nranks);
    cfg.scheduler = cfg.capture == trace::CaptureMode::Reference
                        ? sim::SchedulerKind::Heap
                        : sim::SchedulerKind::Bucketed;
  }
  return cfg;
}

}  // namespace

Harness::Harness(AppConfig cfg, vfs::PfsConfig pfs_cfg,
                 std::vector<sim::ClockModel> clocks)
    : Harness(cfg, std::make_unique<vfs::Pfs>(pfs_cfg), std::move(clocks)) {
  backend_ = static_cast<vfs::Pfs*>(fs_.get());
  if (cfg_.obs != nullptr) backend_->set_observer(cfg_.obs);
}

Harness::Harness(AppConfig cfg, vfs::ClusterConfig cluster_cfg,
                 std::vector<sim::ClockModel> clocks)
    : Harness(cfg, std::make_unique<vfs::PfsCluster>(cluster_cfg),
              std::move(clocks)) {
  concrete_cluster_ = static_cast<vfs::PfsCluster*>(fs_.get());
  backend_ = concrete_cluster_;
  if (cfg_.obs != nullptr) backend_->set_observer(cfg_.obs);
}

Harness::Harness(AppConfig cfg, std::unique_ptr<vfs::FileSystem> fs,
                 std::vector<sim::ClockModel> clocks)
    : cfg_(resolve_capture(cfg)),
      collector_(cfg_.nranks, std::move(clocks), cfg_.capture),
      engine_(cfg_.scheduler),
      fs_(std::move(fs)),
      world_(engine_, collector_,
             mpi::WorldConfig{.nranks = cfg_.nranks,
                              .ranks_per_node = cfg_.ranks_per_node,
                              .seed = cfg_.seed}) {
  require(fs_ != nullptr, "Harness needs a file system backend");
  if (cfg_.obs != nullptr) {
    engine_.set_observer(cfg_.obs);
    collector_.set_observer(cfg_.obs);
  }
  // Streaming must be armed before reserve(): the collector caps the
  // arena pre-size to one chunk when it knows records stream out.
  if (cfg_.stream_sink != nullptr) {
    collector_.enable_streaming(cfg_.stream_sink, cfg_.stream_chunk_records);
  }
  // Pre-size the collector's per-rank arenas. The registered app models
  // emit a few records per rank per time step (open/write/close plus
  // library bookkeeping), so steps-derived guesses land within a small
  // factor; an explicit hint wins when the caller knows better.
  const std::size_t hint =
      cfg_.ops_per_rank_hint != 0
          ? cfg_.ops_per_rank_hint
          : static_cast<std::size_t>(std::max(cfg_.steps, 1)) * 4 + 32;
  collector_.reserve(cfg_.nranks, hint);
  rank_rngs_.reserve(static_cast<std::size_t>(cfg.nranks));
  for (int r = 0; r < cfg.nranks; ++r) {
    rank_rngs_.emplace_back(cfg.seed * 1000003 + static_cast<std::uint64_t>(r));
  }
}

vfs::Pfs& Harness::pfs() {
  auto* const pfs = dynamic_cast<vfs::Pfs*>(backend_);
  require(pfs != nullptr, "pfs(): a custom file-system backend is in use");
  return *pfs;
}

vfs::PfsCluster& Harness::cluster() {
  require(concrete_cluster_ != nullptr,
          "cluster(): the backend is not a PfsCluster");
  return *concrete_cluster_;
}

sim::Task<void> Harness::compute(Rank r, SimDuration base) {
  // Operation-boundary crash check: a crashed rank never starts another
  // time step (iolib and mpi enforce the same at their entry points).
  if (injector_ != nullptr && injector_->crashed(r)) throw sim::TaskKilled(r);
  auto& rng = rank_rngs_[static_cast<std::size_t>(r)];
  const auto jitter =
      static_cast<SimDuration>(rng.below(static_cast<std::uint64_t>(base / 4 + 1)));
  co_await engine_.delay(base + jitter);
}

void Harness::set_faults(const fault::FaultPlan& plan,
                         std::uint64_t fault_seed) {
  // Server events need a matching multi-server topology; fail loudly at
  // arm time rather than silently dropping an event mid-run.
  if (concrete_cluster_ != nullptr) {
    plan.validate_topology(concrete_cluster_->config().mds_count,
                           concrete_cluster_->config().ost_count);
  } else {
    plan.validate_topology(0, 0);
  }
  injector_ =
      std::make_unique<fault::Injector>(plan, fault_seed, cfg_.ranks_per_node);
  injector_->set_observer(cfg_.obs);
  fs_->set_fault_injector(injector_.get());
  world_.set_fault_injector(injector_.get());
}

std::uint64_t Harness::shaped(std::uint64_t salt, Rank r, std::uint64_t lo,
                              std::uint64_t hi) const {
  require(hi >= lo, "shaped: bad range");
  // SplitMix64-style stateless hash of (seed, salt, rank).
  std::uint64_t z = cfg_.seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
                    (static_cast<std::uint64_t>(r) * 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return lo + z % (hi - lo + 1);
}

void Harness::run(const std::function<sim::Task<void>(Rank)>& program) {
  if (injector_ != nullptr) {
    // One scheduler root per planned crash: at the crash instant, mark the
    // victim dead (every later op boundary kills its program) and discard
    // its non-durable writes per the active consistency model.
    for (const auto& [victim, when] : injector_->crash_schedule(cfg_.nranks)) {
      engine_.spawn(
          [](Harness* h, Rank rank, SimTime t) -> sim::Task<void> {
            co_await h->engine_.delay(t);
            h->injector_->mark_crashed(rank, h->engine_.now());
            h->injector_->note_lost_writes(
                h->fs_->crash_rank(rank, h->engine_.now()));
          }(this, victim, when));
    }
    // One root per planned server crash/restart: fault domains flip state
    // at their simulated instants, in deterministic DES order (the
    // schedule is pre-sorted, and spawn order breaks time ties).
    if (concrete_cluster_ != nullptr) {
      for (const fault::ServerEvent& ev : injector_->server_schedule()) {
        engine_.spawn(
            [](Harness* h, fault::ServerEvent e) -> sim::Task<void> {
              co_await h->engine_.delay(e.t);
              h->concrete_cluster_->apply_server_event(e, h->engine_.now());
            }(this, ev));
      }
    }
  }
  for (Rank r = 0; r < cfg_.nranks; ++r) {
    engine_.spawn(
        [](Harness* h, Rank rank,
           std::function<sim::Task<void>(Rank)> body) -> sim::Task<void> {
          // The paper's methodology: a startup barrier defines time zero and
          // bounds clock skew before any traced I/O happens.
          co_await h->world().barrier(rank);
          obs::Run* const orun = h->cfg_.obs;
          const SimTime t0 = h->engine_.now();
          // Span even for crashed ranks: note the kill, emit, rethrow
          // (the emit is synchronous, so no co_await inside the catch).
          try {
            co_await body(rank);
          } catch (const sim::TaskKilled&) {
            if (orun != nullptr && orun->tracing()) {
              orun->tracer.complete({obs::kPidHarness, rank}, "rank-program",
                                    t0, h->engine_.now() - t0, {"killed", 1});
            }
            throw;
          }
          if (orun != nullptr && orun->tracing()) {
            orun->tracer.complete({obs::kPidHarness, rank}, "rank-program", t0,
                                  h->engine_.now() - t0);
          }
        }(this, r, program),
        /*label=*/r);
  }
  engine_.run();
  if (cfg_.obs != nullptr && backend_ != nullptr) {
    // Publish the backend's introspection counters as gauges. Stable:
    // lock/OST traffic is a pure function of the simulated op sequence.
    auto& m = cfg_.obs->metrics;
    const vfs::LockStats& ls = backend_->lock_stats();
    const vfs::OstStats& os = backend_->ost_stats();
    m.set(cfg_.obs->vfs_lock_requests, static_cast<std::int64_t>(ls.requests));
    m.set(cfg_.obs->vfs_lock_revocations,
          static_cast<std::int64_t>(ls.revocations));
    m.set(cfg_.obs->vfs_meta_ops, static_cast<std::int64_t>(ls.meta_ops));
    m.set(cfg_.obs->vfs_ost_bytes, static_cast<std::int64_t>(os.total_bytes));
    const vfs::CompactionStats& cs = backend_->compaction_stats();
    m.set(cfg_.obs->vfs_compacted_writes,
          static_cast<std::int64_t>(cs.folded_writes));
    m.set(cfg_.obs->vfs_compaction_passes,
          static_cast<std::int64_t>(cs.passes));
    if (concrete_cluster_ != nullptr) {
      // Per-server gauges, registered dynamically (topology is a run
      // parameter, not part of the static catalogue). Stable: per-shard
      // routing and striping are pure functions of the op sequence.
      const auto& mds = concrete_cluster_->mds_states();
      for (std::size_t i = 0; i < mds.size(); ++i) {
        const std::string base = "vfs.mds" + std::to_string(i);
        m.set(m.gauge(base + ".meta_ops"),
              static_cast<std::int64_t>(mds[i].meta_ops));
        m.set(m.gauge(base + ".failovers"),
              static_cast<std::int64_t>(mds[i].failovers));
        m.set(m.gauge(base + ".up"), mds[i].up ? 1 : 0);
      }
      for (std::size_t i = 0; i < os.bytes.size(); ++i) {
        const std::string base = "vfs.ost" + std::to_string(i);
        m.set(m.gauge(base + ".bytes"),
              static_cast<std::int64_t>(os.bytes[i]));
        m.set(m.gauge(base + ".up"),
              concrete_cluster_->ost_states()[i].up ? 1 : 0);
      }
    }
  }
  if (cfg_.obs != nullptr && cfg_.obs->ledger_on()) {
    // Resolve ledger FileIds to paths for display/export. The ledger never
    // interns (that would perturb FileId assignment under obs-on); it only
    // mirrors the collector's table after the run.
    for (FileId f = 0; f < collector_.path_count(); ++f) {
      cfg_.obs->ledger.note_path(f, std::string(collector_.path_view(f)));
    }
  }
}

core::DegradedSummary degraded_summary(const fault::FaultStats& stats) {
  core::DegradedSummary d;
  d.faults_injected = stats.transient_faults;
  d.faults_eio = stats.faults_eio;
  d.faults_enospc = stats.faults_enospc;
  d.retries = stats.retries;
  d.giveups = stats.giveups;
  d.mpi_drops = stats.mpi_drops;
  d.slowed_transfers = stats.slowed_transfers;
  d.delayed_writes = stats.delayed_writes;
  d.writes_lost = stats.writes_lost;
  d.crashed_ranks.assign(stats.crashed_ranks.begin(),
                         stats.crashed_ranks.end());
  d.server_crashes = stats.server_crashes;
  d.server_restarts = stats.server_restarts;
  d.mds_failovers = stats.mds_failovers;
  d.failover_redirects = stats.failover_redirects;
  d.degraded_reads = stats.degraded_reads;
  d.crashed_servers = stats.crashed_servers;
  return d;
}

}  // namespace pfsem::apps
