#pragma once
// Binary and text serialization of TraceBundles.
//
// The binary format is a compact little-endian stream (magic + version +
// varint-free fixed-width fields, length-prefixed strings) so bundles can
// be written by a run and re-analyzed later, mirroring Recorder's
// trace-directory workflow. The text form is for human inspection.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <istream>
#include <vector>

#include "pfsem/trace/bundle.hpp"

namespace pfsem::trace {

/// Serialize `bundle` to `os`. Throws pfsem::Error on stream failure.
void write_binary(const TraceBundle& bundle, std::ostream& os);

/// Parse a bundle previously written by write_binary. Throws pfsem::Error
/// on malformed input (bad magic, truncated stream, wrong version).
[[nodiscard]] TraceBundle read_binary(std::istream& is);

/// Human-readable dump (one line per record), optionally filtered by layer.
void write_text(const TraceBundle& bundle, std::ostream& os);

/// Compact format (Recorder 2.0's headline feature is trace compression):
/// LEB128 varints, zig-zag signed fields, per-rank timestamp deltas, and
/// an interned path table. Typically several times smaller than the
/// fixed-width binary format on real traces.
void write_compact(const TraceBundle& bundle, std::ostream& os);

/// Parse a bundle written by write_compact. Throws pfsem::Error on
/// malformed input.
[[nodiscard]] TraceBundle read_compact(std::istream& is);

/// Streaming writer core of the compact (v2) format: `scan` is invoked
/// once and must call its argument exactly `record_count` times, in
/// emission order, with each record to encode. write_compact() is this
/// with a scan over bundle.records — the two produce identical bytes for
/// identical inputs, which is what lets a spilled streaming capture
/// transcode to .trc without the bundle ever existing.
using RecordEmit = std::function<void(const Record&)>;
void write_compact_streamed(int nranks, const PathTable& paths,
                            const CommLog& comm, std::uint64_t record_count,
                            const std::function<void(const RecordEmit&)>& scan,
                            std::ostream& os);

/// Streaming reader over the compact (v2) format: decodes one record per
/// next() call instead of materializing a TraceBundle. Construct, drain
/// next() until it returns false, then read_comm(). Validation (and every
/// error message) matches read_compact, which is a thin wrapper over this.
class CompactReader {
 public:
  explicit CompactReader(std::istream& is);

  [[nodiscard]] int nranks() const { return nranks_; }
  [[nodiscard]] const PathTable& paths() const { return paths_; }
  [[nodiscard]] std::uint64_t record_count() const { return nrec_; }

  /// Decode the next record; false once all records are consumed.
  bool next(Record& out);

  /// Read the trailing comm log. Only valid after next() returned false.
  [[nodiscard]] CommLog read_comm();

 private:
  std::istream& is_;
  int nranks_ = 0;
  PathTable paths_;
  std::uint64_t nrec_ = 0;
  std::uint64_t read_ = 0;
  std::vector<SimTime> last_t_;
};

namespace detail {
/// Comm-log encoding shared by the compact (v2) trailer and the chunk
/// spill trailer (spill.cpp) — one definition, formats cannot drift.
/// The writer appends to a byte buffer (millions of varints at scale).
void write_comm(const CommLog& comm, std::string& out);
/// Piece size of the piecewise write_comm below.
inline constexpr std::size_t kCommPiece = std::size_t{1} << 20;
/// The same bytes written piecewise: whenever `out` holds at least
/// kCommPiece bytes (checked after each p2p event, collective header and
/// arrival) it is handed to `flush`, which takes the bytes and leaves
/// `out` empty. The unflushed tail stays in `out`. A log of any size
/// never needs more than about kCommPiece bytes of buffer.
void write_comm(const CommLog& comm, std::string& out,
                const std::function<void(std::string&)>& flush);
[[nodiscard]] CommLog read_comm(std::istream& is, int nranks);
/// Decode a comm log field by field, with read_comm's checks, appending
/// each event to `*out`, or, with `out == nullptr`, only walking it.
/// A walked log is never seen by HappensBefore (which validates every
/// materialized one), so the walk also rejects a p2p or arrival rank
/// outside [0, nranks).
void scan_comm(std::istream& is, int nranks, CommLog* out);
}  // namespace detail

}  // namespace pfsem::trace
