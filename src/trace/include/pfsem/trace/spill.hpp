#pragma once
// Bounded spill store + chunked compact-v2 framing ("PFSEMCK1").
//
// A streaming capture spills fixed-size record chunks as the collector
// fills them, then replays them after the run for analysis or transcode.
// The spill byte format is pinned (tests/test_compact_codec.cpp carries a
// hand-crafted fixture):
//
//   header   "PFSEMCK1"  varint(nranks)
//   chunk    'C'  varint(base_seq)  varint(nrec)  nrec × record
//   ...                                       (any number of chunks)
//   trailer  'T'  varint(total_records)
//            varint(npaths)  npaths × (varint(len) bytes)
//            comm log               (identical encoding to compact v2)
//
// Records use the compact-v2 field encoding (varint rank, zig-zag
// per-rank tstart delta — the delta chain continues *across* chunks —
// zig-zag duration, packed layer/origin/func, fd, ret, offset, count,
// flags) with one difference: the file field is varint(0) for "no file"
// and varint(file + 1) otherwise, because the intern table is unknown
// until the trailer so the empty-slot trick of compact v2 cannot work
// mid-stream. base_seq is the global emission seq of the chunk's first
// record; the reader rejects gaps and reordering.
//
// The comm log is the trailer's bulk (FLASH-fbs @2048: 7 MB of 20 MB)
// and the capture already holds it as StreamMeta::comm, so neither side
// makes a second whole copy of it. ChunkWriter::finish writes the
// trailer in bounded pieces (detail::kCommPiece) straight into the
// store, byte-identical to detail::write_comm, and
// ChunkReader::read_trailer validates the comm section field by field —
// the same checks as detail::read_comm, plus p2p and arrival ranks —
// without building a CommLog.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "pfsem/trace/stream.hpp"
#include "pfsem/util/types.hpp"

namespace pfsem::trace {

/// Append-only byte store with a memory ceiling: bytes live in memory
/// as a list of segments until the ceiling is crossed, then the segments
/// (and everything after them) spill to a private temp file that is
/// removed on destruction. Each append is copied into an exact-size
/// segment, so growth never re-copies what is already stored. This is
/// the only place the streaming pipeline's memory can grow with run
/// length, and it is capped here.
class SpillStore {
 public:
  static constexpr std::size_t kDefaultCeiling = std::size_t{64} << 20;

  explicit SpillStore(std::size_t memory_ceiling = kDefaultCeiling);
  ~SpillStore();
  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  void append(std::string_view bytes);

  /// Total bytes appended so far.
  [[nodiscard]] std::size_t bytes() const { return total_; }
  /// Peak bytes held in memory — the store's RSS contribution.
  [[nodiscard]] std::size_t peak_memory() const { return peak_mem_; }
  [[nodiscard]] bool spilled() const { return !path_.empty(); }

  /// Fresh read stream over everything appended so far; callable any
  /// number of times. The writer side must be done: appending after
  /// open_read() is an error. An unspilled store hands out a view of its
  /// segments, so the store must outlive the stream.
  [[nodiscard]] std::unique_ptr<std::istream> open_read();

 private:
  std::size_t ceiling_;
  std::vector<std::string> segs_;
  std::size_t mem_ = 0;  ///< bytes held in segs_
  std::string path_;
  std::ofstream file_;
  std::size_t total_ = 0;
  std::size_t peak_mem_ = 0;
  bool reading_ = false;
};

/// StreamSink that frames collector batches into PFSEMCK1 chunks on a
/// SpillStore. One collector batch == one chunk, so the chunk size is
/// whatever chunk_records the collector was configured with.
class ChunkWriter final : public StreamSink {
 public:
  ChunkWriter(SpillStore& store, int nranks);

  void on_records(std::uint64_t base_seq,
                  std::span<const Record> records) override;

  /// Write the trailer, piecewise. Must be called exactly once, after the
  /// collector's take_stream() flushed the final batch.
  void finish(const StreamMeta& meta);

 private:
  SpillStore& store_;
  std::string buf_;
  std::vector<SimTime> last_t_;
  std::uint64_t expected_seq_ = 0;
  bool finished_ = false;
};

/// Replays a PFSEMCK1 stream record by record, validating framing as it
/// goes. Usage: construct, call next() until it returns false, then
/// read_trailer().
class ChunkReader {
 public:
  struct Trailer {
    std::uint64_t records = 0;
    PathTable paths;
  };

  explicit ChunkReader(std::istream& is);

  [[nodiscard]] int nranks() const { return nranks_; }
  /// Records decoded so far.
  [[nodiscard]] std::uint64_t seen() const { return seen_; }

  /// Decode the next record; false once the trailer marker is reached.
  bool next(Record& out);

  /// Read and validate the trailer. Only valid after next() returned
  /// false. The comm section is validated but not kept: the capture that
  /// wrote the stream already holds the log.
  [[nodiscard]] Trailer read_trailer();

 private:
  std::istream& is_;
  int nranks_ = 0;
  std::vector<SimTime> last_t_;
  std::uint64_t seen_ = 0;
  std::uint64_t chunk_left_ = 0;
  std::uint64_t max_file_seen_ = 0;
  bool any_file_seen_ = false;
  bool at_trailer_ = false;
};

}  // namespace pfsem::trace
