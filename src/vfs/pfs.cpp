#include "pfsem/vfs/pfs.hpp"

#include <algorithm>

#include "pfsem/fault/injector.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::vfs {

namespace {

/// Validated OST count of a single-server configuration.
std::size_t checked_stripes(const PfsConfig& cfg) {
  require(cfg.stripe_count >= 1, "stripe_count must be >= 1");
  require(cfg.stripe_size > 0, "stripe_size must be positive");
  return static_cast<std::size_t>(cfg.stripe_count);
}

}  // namespace

Pfs::Pfs(PfsConfig cfg) : PfsBase(cfg, checked_stripes(cfg)) {}
Pfs::~Pfs() = default;

SimDuration Pfs::charge_transfer(Extent ext, SimTime now) {
  if (ext.empty()) return 0;
  const auto n = static_cast<std::size_t>(cfg_.stripe_count);
  bool slowed = false;
  // Per-OST transfer time, stretched by any active slowdown window.
  auto ost_time = [&](std::size_t ost, Offset bytes) {
    double t = static_cast<double>(bytes) / cfg_.bytes_per_ns;
    if (injector_ != nullptr) {
      const double factor = injector_->transfer_factor(static_cast<int>(ost), now);
      if (factor > 1.0) {
        t *= factor;
        slowed = true;
      }
    }
    return static_cast<SimDuration>(t);
  };
  SimDuration cost = 0;
  if (n == 1) {
    ++osts_.requests[0];
    osts_.bytes[0] += ext.size();
    osts_.total_bytes += ext.size();
    cost = ost_time(0, ext.size());
  } else {
    // Distribute the extent over the round-robin stripe layout.
    std::vector<Offset> per_ost(n, 0);
    Offset pos = ext.begin;
    while (pos < ext.end) {
      const Offset stripe_idx = pos / cfg_.stripe_size;
      const Offset stripe_end = (stripe_idx + 1) * cfg_.stripe_size;
      const Offset chunk = std::min(ext.end, stripe_end) - pos;
      per_ost[static_cast<std::size_t>(stripe_idx % n)] += chunk;
      pos += chunk;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (per_ost[i] == 0) continue;
      ++osts_.requests[i];
      osts_.bytes[i] += per_ost[i];
      osts_.total_bytes += per_ost[i];
      cost = std::max(cost, ost_time(i, per_ost[i]));
    }
  }
  if (slowed) injector_->note_slowed_transfer();
  return cost;
}

}  // namespace pfsem::vfs
