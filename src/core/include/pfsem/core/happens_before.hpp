#pragma once
// Happens-before reconstruction from communication events (Section 5.2).
//
// The paper validates its timestamp-based ordering by matching sends to
// receives and collective invocations and checking that conflicting I/O
// operations are ordered by the program's synchronization. We rebuild the
// same partial order with vector clocks over the matched CommLog events:
//
//   * program order within a rank;
//   * P2P: send start -> receive completion;
//   * Barrier/Allreduce/Allgather/Alltoall: every enter -> every exit;
//   * Bcast/Scatter: root enter -> every exit;
//   * Reduce/Gather: every enter -> root exit.
//
// ordered(r1,t1,r2,t2) asks whether an operation at local time t1 on r1
// must precede an operation at t2 on r2: there must be a release event on
// r1 at/after t1 whose knowledge reaches r2 by an acquire completing
// at/before t2.
//
// Clocks are interned. A rank's clock is a shared nranks-wide row plus
// its own sequence number, which overrides the row's own-rank entry. A
// new row is made only when knowledge moves between ranks: one per
// rootless collective (shared by every participant), one per Reduce/
// Gather (the root's), one per distinct leaf row of a Bcast/Scatter, and
// one per p2p message (the receiver's). Memory is O((1 + collectives +
// p2p) x nranks) instead of a dense clock per node.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pfsem/core/conflict.hpp"
#include "pfsem/trace/comm_log.hpp"

namespace pfsem::core {

class HappensBefore {
 public:
  /// Throws pfsem::Error naming the offending event if `comm` holds a
  /// rank outside [0, nranks), a bad collective kind, a rooted collective
  /// with an out-of-range root, or a rank arriving twice at one
  /// collective (a corrupt trace file).
  HappensBefore(const trace::CommLog& comm, int nranks);

  /// True if (r1, t1) happens-before (r2, t2) under the reconstructed
  /// synchronization order. Same-rank queries reduce to t1 <= t2.
  [[nodiscard]] bool ordered(Rank r1, SimTime t1, Rank r2, SimTime t2) const;

  [[nodiscard]] int nranks() const { return nranks_; }

  /// Interned clock rows, the initial all-zero row included; each is
  /// nranks x 4 B. The count is at most 1 + collectives + p2p when every
  /// Bcast/Scatter finds its leaves on one shared row; each further
  /// distinct leaf row adds one.
  [[nodiscard]] std::size_t clock_count() const { return clock_count_; }

 private:
  using ClockId = std::uint32_t;

  struct Node {
    SimTime t_enter;    ///< release point (knowledge leaves at/after this)
    SimTime t_exit;     ///< acquire point (knowledge arrives by this)
    std::uint32_t seq;  ///< index of this node within its rank's timeline
    ClockId clock;      ///< row holding the knowledge after this node,
                        ///< exact except for the node's own-rank entry
  };

  /// Per-rank timelines of nodes, each sorted by time.
  std::vector<std::vector<Node>> timeline_;
  /// clock_count_ rows of nranks_ entries each, row-major.
  std::vector<std::uint32_t> rows_;
  std::size_t clock_count_ = 0;
  int nranks_;
};

/// Validation result for one run (the Section 5.2 experiment).
struct RaceCheck {
  std::uint64_t checked = 0;
  std::uint64_t synchronized = 0;  ///< pairs ordered by happens-before
  std::uint64_t racy = 0;          ///< pairs with no ordering: data races
};

/// Check that every potential-conflict pair in `report` is ordered by the
/// communication structure (timestamp order matches execution order).
/// ordered() is a const lookup, so the pairs fan out over `threads`
/// chunks; the counter sums are order-invariant.
[[nodiscard]] RaceCheck validate_synchronization(const ConflictReport& report,
                                                 const HappensBefore& hb,
                                                 int threads = 1);

}  // namespace pfsem::core
