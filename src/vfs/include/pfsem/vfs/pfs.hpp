#pragma once
// In-memory parallel file system simulator with pluggable consistency
// semantics, implementing the four models of Section 3 of the paper:
//
//   Strong   — POSIX sequential consistency: a write is visible to every
//              process the moment it returns (Lustre/GPFS/BeeGFS class).
//   Commit   — writes become globally visible when the writer executes a
//              commit (fsync/close) (UnifyFS/BurstFS/SymphonyFS class).
//   Session  — writes become visible to a reader only if the writer closed
//              the file before the reader opened it (NFS/Gfarm-BB class).
//   Eventual — writes propagate after a configurable delay with no
//              synchronization at all (PLFS/echofs class).
//
// Data buffers are never stored: each write gets a unique VersionTag and
// reads return the tags visible to the reading process, so tests can tell
// exactly *which* write a read observed and detect stale data. A read that
// would return different bytes than POSIX-strong semantics is observable
// staleness — the ground truth the conflict detector predicts.
//
// The Pfs is not coroutine-aware: operations take the current simulated
// time and return a simulated cost which the caller (pfsem::iolib) awaits.
// Under the strong model a distributed-lock cost model charges lock
// acquisition/revocation traffic, the overhead the paper identifies as the
// price of POSIX semantics (Section 3.1); data transfers are striped
// round-robin across OSTs (PfsConfig::stripe_count).
//
// Semantics and op bodies live in one place, the shared PfsBase
// (pfs_base.hpp); backends differ only in routing, pricing and fault
// domains. This single-server backend keeps only its pricing: a transfer
// costs the slowest of its per-OST shares. Every metadata op is served
// and no read is degraded, which makes it the topology oracle the
// multi-server PfsCluster (cluster.hpp) is checked against.

#include "pfsem/vfs/pfs_base.hpp"

namespace pfsem::vfs {

class Pfs final : public PfsBase {
 public:
  explicit Pfs(PfsConfig cfg = {});
  ~Pfs() override;

  [[nodiscard]] const PfsConfig& config() const { return cfg_; }

 private:
  /// Transfer cost of `ext` across the striped OSTs: the maximum of the
  /// per-OST transfer times, each stretched by any active OST slowdown.
  SimDuration charge_transfer(Extent ext, SimTime now) override;
};

}  // namespace pfsem::vfs
