#include "pfsem/vfs/cluster.hpp"

#include <algorithm>
#include <map>

#include "pfsem/fault/injector.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::vfs {

namespace {

/// Validated OST count of a cluster topology.
std::size_t checked_osts(const ClusterConfig& cfg) {
  require(cfg.mds_count >= 1, "PfsCluster: mds_count must be >= 1");
  require(cfg.ost_count >= 1, "PfsCluster: ost_count must be >= 1");
  require(cfg.stripe > 0 && (cfg.stripe & (cfg.stripe - 1)) == 0,
          "PfsCluster: stripe must be a positive power of two");
  require(cfg.mds_replicas >= 1, "PfsCluster: mds_replicas must be >= 1");
  return static_cast<std::size_t>(cfg.ost_count);
}

}  // namespace

PfsCluster::PfsCluster(ClusterConfig cfg)
    : PfsBase(cfg.base, checked_osts(cfg)), cluster_cfg_(cfg) {
  mds_.assign(static_cast<std::size_t>(cfg.mds_count), MdsState{});
  for (auto& s : mds_) s.standbys = cfg.mds_replicas - 1;
  ost_.assign(static_cast<std::size_t>(cfg.ost_count), OstState{});
}
PfsCluster::~PfsCluster() = default;

int PfsCluster::shard_of(std::string_view path) const {
  // FNV-1a, fixed here (not std::hash) so the shard layout — and with it
  // every per-server counter — is identical on every platform.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : path) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<int>(h %
                          static_cast<std::uint64_t>(cluster_cfg_.mds_count));
}

// ----------------------------------------------------------------------
// routing

int PfsCluster::route(std::string_view path, SimTime now, bool can_fail) {
  const int shard = shard_of(path);
  MdsState& s = mds_[static_cast<std::size_t>(shard)];
  if (!s.up) {
    if (s.standbys <= 0) return fault::kEhostdown;  // no replica remains
    // Detection happens on the first client op against the dead primary:
    // promote a standby. A failable op still reports EHOSTDOWN for this
    // attempt — the client's failover retry redirects and succeeds.
    --s.standbys;
    s.up = true;
    ++s.failovers;
    if (injector_ != nullptr) injector_->note_mds_failover(shard, now);
    if (can_fail) return fault::kEhostdown;
  }
  ++s.meta_ops;
  return 0;
}

int PfsCluster::route_rename(std::string_view from, std::string_view to,
                             SimTime now) {
  // A rename spans two shards (source and destination directory entries);
  // both must be reachable. One aggregate meta op either way, so the
  // fault-free cost and counters match the single-server backend.
  if (const int e = route(from, now, /*can_fail=*/true)) return e;
  if (shard_of(to) == shard_of(from)) return 0;
  return route(to, now, /*can_fail=*/true);
}

// ----------------------------------------------------------------------
// pricing & degraded reads

SimDuration PfsCluster::charge_transfer(Extent ext, SimTime now) {
  if (ext.empty()) return 0;
  const auto n = static_cast<std::size_t>(cluster_cfg_.ost_count);
  const Offset stripe = cluster_cfg_.stripe;
  // Distribute the extent over the round-robin stripe layout for per-OST
  // accounting and fault routing. The transfer *time* is client-link
  // bound (bytes_per_ns is the aggregate bandwidth), so topology never
  // changes fault-free costs — the differential-oracle invariant.
  std::vector<Offset> per_ost(n, 0);
  Offset pos = ext.begin;
  while (pos < ext.end) {
    const Offset block = pos / stripe;
    const Offset block_end = (block + 1) * stripe;
    const Offset chunk = std::min(ext.end, block_end) - pos;
    per_ost[static_cast<std::size_t>(block % n)] += chunk;
    pos += chunk;
  }
  double factor = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (per_ost[i] == 0) continue;
    ++osts_.requests[i];
    osts_.bytes[i] += per_ost[i];
    osts_.total_bytes += per_ost[i];
    if (injector_ != nullptr) {
      factor = std::max(factor,
                        injector_->transfer_factor(static_cast<int>(i), now));
    }
  }
  if (factor > 1.0) injector_->note_slowed_transfer();
  return static_cast<SimDuration>(
      static_cast<double>(ext.size()) / cfg_.bytes_per_ns * factor);
}

void PfsCluster::degrade_read(std::vector<ReadExtent>& extents, Extent range) {
  if (!any_ost_down_ || range.empty()) return;
  const auto n = static_cast<std::uint64_t>(cluster_cfg_.ost_count);
  const Offset stripe = cluster_cfg_.stripe;
  std::map<Offset, detail::Seg> m;
  for (const auto& re : extents) {
    m.emplace(re.ext.begin, detail::Seg{re.ext.end, re.version, re.writer});
  }
  bool punched = false;
  Offset pos = range.begin;
  while (pos < range.end) {
    const Offset block = pos / stripe;
    const Offset block_end = (block + 1) * stripe;
    const Offset end = std::min(range.end, block_end);
    if (!ost_[static_cast<std::size_t>(block % n)].up) {
      detail::assign(m, {pos, end}, 0, kNoRank);
      punched = true;
    }
    pos = end;
  }
  if (!punched) return;
  extents = detail::emit_extents(m);
  if (injector_ != nullptr) injector_->note_degraded_read();
}

// ----------------------------------------------------------------------
// server lifecycle

void PfsCluster::apply_server_event(const fault::ServerEvent& ev, SimTime now) {
  if (ev.kind == fault::ServerKind::Mds) {
    require(ev.id >= 0 && ev.id < cluster_cfg_.mds_count,
            "apply_server_event: mds id out of range");
    MdsState& s = mds_[static_cast<std::size_t>(ev.id)];
    if (!ev.restart) {
      // A crash while the primary is already down takes out a standby.
      if (s.up) s.up = false;
      else if (s.standbys > 0) --s.standbys;
      if (injector_ != nullptr) {
        injector_->note_server_crash(fault::ServerKind::Mds, ev.id, now);
      }
    } else {
      // Rejoin: as primary if the shard is headless, else as a standby.
      if (!s.up) s.up = true;
      else ++s.standbys;
      if (injector_ != nullptr) {
        injector_->note_server_restart(fault::ServerKind::Mds, ev.id, now);
      }
    }
  } else {
    require(ev.id >= 0 && ev.id < cluster_cfg_.ost_count,
            "apply_server_event: ost id out of range");
    ost_[static_cast<std::size_t>(ev.id)].up = !ev.restart ? false : true;
    if (injector_ != nullptr) {
      if (!ev.restart) {
        injector_->note_server_crash(fault::ServerKind::Ost, ev.id, now);
      } else {
        injector_->note_server_restart(fault::ServerKind::Ost, ev.id, now);
      }
    }
  }
  any_ost_down_ = false;
  for (const auto& o : ost_) any_ost_down_ |= !o.up;
}

}  // namespace pfsem::vfs
