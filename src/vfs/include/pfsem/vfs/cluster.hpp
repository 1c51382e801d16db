#pragma once
// OrangeFS/PVFS2-style multi-server parallel file system with server
// fault domains (docs/topology.md).
//
// Topology: N metadata servers shard the namespace by path hash (FNV-1a);
// M data servers (OSTs) hold file data striped in power-of-two `stripe`
// blocks (block b lives on OST b % M). Clients are stateless lookup →
// handle machines: the open() round trip resolves the path on its
// metadata shard, and data operations then go straight to the OSTs —
// which is why data I/O keeps working while a metadata server is down.
//
// Fault domains (driven by fault plan crash_mds / crash_ost /
// restart_server events, applied by the harness at their simulated
// instants):
//  - MDS crash: each shard has `mds_replicas - 1` standby replicas. The
//    first client metadata op that hits the dead primary observes
//    EHOSTDOWN and promotes a standby; the iolib failover retry redirects
//    the op, which then succeeds — degraded but alive. When no replica
//    remains, every op on the shard fails EHOSTDOWN until the client's
//    failover budget is exhausted: a loud permanent failure.
//    Commit points that cannot surface an errno (close, laminate) ride
//    the promoted replica silently; with no replica left their metadata
//    effect (commit/publish) is lost.
//  - OST crash: writes still succeed (client write-behind; the data
//    replays when the server returns), but reads resolve normally and
//    then *punch holes* over stripe blocks served by a down OST — a
//    degraded read that reports exactly which bytes are unavailable.
//    restart_server makes those stripes readable again.
//  - Network partitions (fault plan `partition:`) are model-level: the
//    shared visibility core defers cross-partition keys to the heal time
//    (file_core.hpp), so split-brain staleness is observable under every
//    consistency model, on this backend and on single-server Pfs alike.
//
// Semantics and op bodies live in one place, the shared PfsBase
// (pfs_base.hpp); backends differ only in routing, pricing and fault
// domains. This backend adds exactly those: shard routing with standby
// failover, link-bound pricing, degraded reads, and the server state the
// fault plan flips.
//
// Differential oracle: with no faults, every operation has the same
// result and the same simulated cost as single-server Pfs regardless of
// (N, M, stripe) — the op bodies are shared, metadata ops cost one
// meta_latency wherever the shard lives, and transfers are
// client-link-bound (PfsConfig::bytes_per_ns is the aggregate), so trace
// bundles and reports are byte-identical across topologies.

#include <string_view>
#include <vector>

#include "pfsem/fault/plan.hpp"
#include "pfsem/vfs/pfs_base.hpp"

namespace pfsem::vfs {

struct ClusterConfig {
  /// Consistency model and cost knobs; stripe_count/stripe_size are
  /// ignored (the cluster topology below replaces them).
  PfsConfig base;
  int mds_count = 1;       ///< metadata servers (namespace shards)
  int ost_count = 1;       ///< data servers
  Offset stripe = 64u << 10;  ///< power-of-two stripe block (64 KiB)
  int mds_replicas = 2;    ///< primary + standbys per metadata shard
};

/// Availability and traffic of one metadata shard.
struct MdsState {
  bool up = true;
  int standbys = 0;            ///< standby replicas still available
  std::uint64_t meta_ops = 0;  ///< ops served by this shard
  std::uint64_t failovers = 0; ///< standby promotions on this shard
};

/// Availability of one data server (traffic lives in OstStats).
struct OstState {
  bool up = true;
};

class PfsCluster final : public PfsBase {
 public:
  explicit PfsCluster(ClusterConfig cfg = {});
  ~PfsCluster() override;

  [[nodiscard]] const ClusterConfig& config() const { return cluster_cfg_; }
  [[nodiscard]] const std::vector<MdsState>& mds_states() const { return mds_; }
  [[nodiscard]] const std::vector<OstState>& ost_states() const { return ost_; }

  /// Metadata shard serving `path` (FNV-1a hash mod mds_count).
  [[nodiscard]] int shard_of(std::string_view path) const;

  /// Apply one server crash/restart at its simulated instant (called from
  /// the harness's per-event killable roots, in deterministic DES order).
  void apply_server_event(const fault::ServerEvent& ev, SimTime now);

 private:
  /// Per-OST accounting over the stripe layout; the time is client-link
  /// bound, so topology never changes fault-free costs.
  SimDuration charge_transfer(Extent ext, SimTime now) override;
  /// Availability check + per-shard accounting for one metadata op on
  /// `path`'s shard. A dead primary with a standby promotes it; `can_fail`
  /// ops observe EHOSTDOWN once (the client failover redirects), commit
  /// points (can_fail = false) ride the new primary silently.
  int route(std::string_view path, SimTime now, bool can_fail) override;
  int route_rename(std::string_view from, std::string_view to,
                   SimTime now) override;
  /// Replace resolved bytes on down-OST stripe blocks with holes, noting
  /// a degraded read when the range touched a down OST.
  void degrade_read(std::vector<ReadExtent>& extents, Extent range) override;

  ClusterConfig cluster_cfg_;
  std::vector<MdsState> mds_;
  std::vector<OstState> ost_;
  bool any_ost_down_ = false;  ///< fast-path guard for degrade_read
};

}  // namespace pfsem::vfs
