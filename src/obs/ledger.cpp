#include "pfsem/obs/ledger.hpp"

#include <algorithm>

#include "pfsem/util/error.hpp"

namespace pfsem::obs {

namespace {

/// Sort the appended tail of `e.rank_stall`, merge it into the sorted
/// prefix, and sum the entries of each rank into one.
void fold_ranks(Ledger::Entry& e) {
  auto& rs = e.rank_stall;
  const auto by_rank = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  const auto mid = rs.begin() + static_cast<std::ptrdiff_t>(e.rank_sorted);
  std::sort(mid, rs.end(), by_rank);
  std::inplace_merge(rs.begin(), mid, rs.end(), by_rank);
  std::size_t out = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (out > 0 && rs[out - 1].first == rs[i].first) {
      rs[out - 1].second += rs[i].second;
    } else {
      rs[out++] = rs[i];
    }
  }
  rs.resize(out);
  e.rank_sorted = out;
}

}  // namespace

const char* to_string(OpClass c) {
  switch (c) {
    case OpClass::Open: return "open";
    case OpClass::Close: return "close";
    case OpClass::Read: return "read";
    case OpClass::Write: return "write";
    case OpClass::Sync: return "sync";
    case OpClass::Meta: return "meta";
  }
  return "?";
}

void Ledger::record(const LedgerOp& op) {
  if (op.file == kNoFile) return;
  if (op.file >= files_.size()) files_.resize(op.file + 1);
  Entry& e = files_[op.file];
  // Capture happens strictly before analysis-driven retirement, so a
  // condensed file can never see another record; catching it here keeps
  // the early-vs-late condensation byte-identity honest. Hand-rolled
  // instead of require(): that helper builds its std::string message on
  // every call, and this is the ledger's per-record hot path.
  if (e.condensed) [[unlikely]] {
    throw Error("obs ledger: record after condense for this file");
  }
  if (!e.touched) {
    e.touched = true;
    ++touched_files_;
  }
  const auto stall =
      static_cast<std::uint64_t>(op.stall_ns < 0 ? 0 : op.stall_ns);
  Cell& c = e.cells[static_cast<std::size_t>(op.cls)];
  ++c.ops;
  c.stall_ns += stall;
  c.bytes += op.bytes;
  c.lock_requests += op.lock_requests;
  c.lock_revocations += op.lock_revocations;
  c.meta_rpcs += op.meta_rpcs;
  c.ost_bytes += op.ost_bytes;
  c.retries += op.retries;
  c.failovers += op.failovers;

  // A rank's calls on one file come in runs: add to the entry of its
  // last call on this file unless a fold has moved it since (the rank
  // check sees that); otherwise append to the unsorted tail.
  auto& rs = e.rank_stall;
  if (op.rank >= 0) {
    const auto r = static_cast<std::size_t>(op.rank);
    if (r >= last_slot_.size()) last_slot_.resize(r + 1, {kNoFile, 0});
    auto& [file, slot] = last_slot_[r];
    if (file == op.file && slot < rs.size() && rs[slot].first == op.rank) {
      rs[slot].second += stall;
      return;
    }
    file = op.file;
    slot = static_cast<std::uint32_t>(rs.size());
  }
  rs.emplace_back(op.rank, stall);
  if (rs.size() >= 2 * e.rank_sorted + 8) fold_ranks(e);
}

void Ledger::condense(FileId f) {
  if (f == kNoFile || f >= files_.size()) return;
  Entry& e = files_[f];
  if (e.condensed) return;
  e.condensed = true;
  if (!e.touched) return;
  fold_ranks(e);
  e.ranks_touched = static_cast<std::uint32_t>(e.rank_stall.size());
  // Max per-rank stall; the vector is sorted by rank, so keeping the
  // first strict maximum IS the lowest-rank tie-break.
  for (const auto& [rank, stall] : e.rank_stall) {
    if (e.hottest_rank == kNoRank || stall > e.hottest_rank_stall_ns) {
      e.hottest_rank = rank;
      e.hottest_rank_stall_ns = stall;
    }
  }
  e.rank_stall.clear();
  e.rank_stall.shrink_to_fit();
  e.rank_sorted = 0;
}

void Ledger::condense_all() {
  for (FileId f = 0; f < files_.size(); ++f) condense(f);
}

void Ledger::note_path(FileId f, std::string_view path) {
  if (f == kNoFile || f >= files_.size()) return;
  files_[f].path.assign(path);
}

std::size_t Ledger::live_rank_cells() const {
  std::size_t n = 0;
  for (const Entry& e : files_) n += e.rank_stall.size();
  return n;
}

}  // namespace pfsem::obs
