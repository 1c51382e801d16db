#pragma once
// Open descriptors keyed by (rank, fd), indexed by rank.
//
// Row r holds rank r's open descriptors, sorted by fd. A rank keeps only a
// few descriptors open at a time, so a lookup is one index into the row
// vector plus a short search of a contiguous row — no tree walk per op.
// The simulated file system, the POSIX facade and offset reconstruction
// all keep this per-(rank, fd) state; rows grow on demand, so a caller
// must bound the rank first (a negative rank throws).

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "pfsem/util/error.hpp"
#include "pfsem/util/types.hpp"

namespace pfsem {

template <class T>
class FdTable {
 public:
  struct Entry {
    int fd = -1;
    T value{};
  };

  /// The value of (r, fd), or nullptr if that descriptor is not open.
  [[nodiscard]] T* find(Rank r, int fd) {
    if (r < 0 || static_cast<std::size_t>(r) >= rows_.size()) return nullptr;
    auto& row = rows_[static_cast<std::size_t>(r)];
    const auto it = lower(row, fd);
    return it != row.end() && it->fd == fd ? &it->value : nullptr;
  }
  [[nodiscard]] const T* find(Rank r, int fd) const {
    return const_cast<FdTable*>(this)->find(r, fd);
  }

  /// Open (r, fd) with `value`, replacing any value it already had.
  /// References into row r are invalidated.
  T& put(Rank r, int fd, T value) {
    auto& row = grow(r);
    auto it = lower(row, fd);
    if (it != row.end() && it->fd == fd) {
      it->value = std::move(value);
    } else {
      it = row.insert(it, Entry{fd, std::move(value)});
    }
    return it->value;
  }

  /// Close (r, fd); false if it was not open.
  bool erase(Rank r, int fd) {
    if (r < 0 || static_cast<std::size_t>(r) >= rows_.size()) return false;
    auto& row = rows_[static_cast<std::size_t>(r)];
    const auto it = lower(row, fd);
    if (it == row.end() || it->fd != fd) return false;
    row.erase(it);
    // Ranks mostly hold one descriptor at a time; a closed-out row gives
    // its buffer back instead of pinning it for the rest of the run.
    if (row.empty()) Row().swap(row);
    return true;
  }

  /// Rank r's open descriptors, ascending by fd (empty for unseen ranks).
  [[nodiscard]] std::span<Entry> row(Rank r) {
    if (r < 0 || static_cast<std::size_t>(r) >= rows_.size()) return {};
    return rows_[static_cast<std::size_t>(r)];
  }

  /// Close every descriptor of rank r.
  void clear_row(Rank r) {
    if (r >= 0 && static_cast<std::size_t>(r) < rows_.size()) {
      Row().swap(rows_[static_cast<std::size_t>(r)]);
    }
  }

 private:
  using Row = std::vector<Entry>;

  static typename Row::iterator lower(Row& row, int fd) {
    return std::lower_bound(
        row.begin(), row.end(), fd,
        [](const Entry& e, int key) { return e.fd < key; });
  }

  Row& grow(Rank r) {
    require(r >= 0, "fd table: negative rank");
    const auto i = static_cast<std::size_t>(r);
    if (i >= rows_.size()) rows_.resize(i + 1);
    return rows_[i];
  }

  std::vector<Row> rows_;
};

}  // namespace pfsem
