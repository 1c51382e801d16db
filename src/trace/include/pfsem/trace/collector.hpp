#pragma once
// Trace capture. The simulated I/O stack calls Collector::emit with global
// simulated timestamps; the collector converts them to the emitting rank's
// local clock (applying the configured skew/drift) before storing, because
// that is all a real tracer ever sees. Matched communication events are
// appended to the embedded CommLog by pfsem::mpi through the same clock
// conversion.
//
// Records land in one vector in emission order, which is the trace's
// canonical record order: emit() copies each record once and converts
// its timestamps in place. Per-FileId record counts are tallied during
// capture and handed to the bundle as column hints
// (TraceBundle::file_op_counts), so TraceStore construction can pre-size
// its per-file columns.

#include <utility>
#include <vector>

#include "pfsem/obs/obs.hpp"
#include "pfsem/sim/clock.hpp"
#include "pfsem/trace/bundle.hpp"
#include "pfsem/trace/stream.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::trace {

class Collector {
 public:
  /// `clocks` may be empty (perfect clocks) or one ClockModel per rank.
  explicit Collector(int nranks, std::vector<sim::ClockModel> clocks = {})
      : clocks_(std::move(clocks)) {
    require(nranks > 0, "need at least one rank");
    require(clocks_.empty() || std::ssize(clocks_) == nranks,
            "clock vector must match rank count");
    bundle_.nranks = nranks;
  }

  [[nodiscard]] int nranks() const { return bundle_.nranks; }

  /// Capacity hint from the run harness: expect about `per_rank_hint`
  /// records from each of `nranks` ranks. Purely an optimization — the
  /// record vector grows past the hint freely.
  void reserve(int nranks, std::size_t per_rank_hint);

  /// Local timestamp rank `r` would record for global time `t`.
  [[nodiscard]] SimTime local_time(Rank r, SimTime t) const {
    if (clocks_.empty()) return t;
    return clocks_[static_cast<std::size_t>(r)].local_time(t);
  }

  /// Intern `path` in the bundle's PathTable. Emission sites call this
  /// once at open time and pass the returned id on every subsequent op.
  [[nodiscard]] FileId intern(std::string_view path) {
    return bundle_.paths.intern(path);
  }

  /// Intern a rename: the record carries `from`'s id, and `to` becomes an
  /// alias of that id (no new path-table slot), so later opens of the new
  /// name continue the renamed file's history under one dense FileId.
  [[nodiscard]] FileId intern_rename(std::string_view from,
                                     std::string_view to) {
    const FileId id = bundle_.paths.intern(from);
    (void)bundle_.paths.alias(to, id);
    return id;
  }

  /// Resolve a previously interned id ("" for kNoFile).
  [[nodiscard]] std::string_view path_view(FileId id) const {
    return bundle_.paths.view_or_empty(id);
  }

  /// Interned paths so far (dense FileIds are 0 .. path_count()-1).
  [[nodiscard]] std::size_t path_count() const { return bundle_.paths.size(); }

  /// Append a record whose tstart/tend are in *global* time; they are
  /// converted to the emitting rank's local clock in place — the record
  /// is copied exactly once, straight into the record vector.
  void emit(const Record& r) {
    require(r.rank >= 0 && r.rank < bundle_.nranks, "record rank out of range");
    // Observed before clock conversion: the record still carries global
    // timestamps here.
    if (obs_ != nullptr) note_obs(r);
    if (r.file != kNoFile) {
      if (r.file >= file_counts_.size()) file_counts_.resize(r.file + 1, 0);
      ++file_counts_[r.file];
    }
    Record& dst = bundle_.records.emplace_back(r);
    dst.tstart = local_time(dst.rank, dst.tstart);
    dst.tend = local_time(dst.rank, dst.tend);
    if (stream_sink_ != nullptr) note_stream(r);
  }

  /// Record a matched point-to-point event (times given in global time).
  void emit_p2p(P2PEvent e) {
    if (obs_ != nullptr) obs_->metrics.add(obs_->mpi_p2p);
    e.t_send_start = local_time(e.src, e.t_send_start);
    e.t_send_end = local_time(e.src, e.t_send_end);
    e.t_recv_start = local_time(e.dst, e.t_recv_start);
    e.t_recv_end = local_time(e.dst, e.t_recv_end);
    bundle_.comm.p2p.push_back(e);
  }

  /// Record a matched collective (arrival times given in global time).
  void emit_collective(CollectiveEvent e) {
    if (obs_ != nullptr) obs_->metrics.add(obs_->mpi_collectives);
    for (auto& a : e.arrivals) {
      a.t_enter = local_time(a.rank, a.t_enter);
      a.t_exit = local_time(a.rank, a.t_exit);
    }
    bundle_.comm.collectives.push_back(std::move(e));
  }

  /// Number of records captured so far (streamed-out ones included).
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(stream_consumed_) + bundle_.records.size();
  }

  /// Finish capture and take the bundle (column hints attached). The
  /// collector is empty afterwards.
  [[nodiscard]] TraceBundle take();

  /// View of the bundle while capture is ongoing; capture may continue
  /// afterwards.
  [[nodiscard]] const TraceBundle& bundle() const {
    require(stream_sink_ == nullptr,
            "collector is in streaming mode; records are not materialized");
    return bundle_;
  }

  /// Switch to streaming capture: records are handed to `sink` in global
  /// emission order in batches of `chunk_records` instead of accumulating
  /// in the bundle. Must be called before the first emit; bundle()/take()
  /// are unavailable afterwards — finish with take_stream().
  void enable_streaming(StreamSink* sink, std::size_t chunk_records);

  [[nodiscard]] bool streaming() const { return stream_sink_ != nullptr; }

  /// Finish a streaming capture: flush the final partial batch to the
  /// sink and hand over everything except the records. The collector is
  /// empty afterwards.
  [[nodiscard]] StreamMeta take_stream();

  /// Largest pending-record batch handed to the sink in one flush — the
  /// streaming path's record-buffer high-water mark. Never exceeds
  /// chunk_records (tests assert the bound).
  [[nodiscard]] std::size_t stream_peak_pending() const {
    return stream_peak_;
  }

  /// Attach an observability context (nullptr = off, the default). The
  /// collector then feeds the io.*/mpi.*/trace.* metrics and, when
  /// tracing is on, emits one per-rank span per captured record.
  void set_observer(obs::Run* run) { obs_ = run; }

 private:
  /// Hand every pending record (in emission order) to the stream sink.
  void flush_stream();

  /// Streaming bookkeeping for one emitted record: tally the per-rank
  /// Posix count and flush once a chunk's worth of records is pending.
  void note_stream(const Record& r) {
    if (r.layer == Layer::Posix) {
      ++rank_posix_counts_[static_cast<std::size_t>(r.rank)];
      if (r.file != kNoFile) {
        // Exact per-file tally: the windowed analyzer retires a file
        // once this many Posix records for it have replayed, so the
        // predicate here must match the one the release path decrements
        // on (Posix layer, file attached).
        if (r.file >= file_posix_counts_.size()) {
          file_posix_counts_.resize(r.file + 1, 0);
        }
        ++file_posix_counts_[r.file];
      }
    }
    if (bundle_.records.size() >= stream_chunk_) flush_stream();
  }

  /// Observability slow path for one emitted record (global timestamps;
  /// called only when obs_ != nullptr, before clock conversion).
  void note_obs(const Record& r);

  TraceBundle bundle_;
  std::vector<sim::ClockModel> clocks_;
  /// Records per FileId seen so far: the column hints.
  std::vector<std::uint32_t> file_counts_;
  /// Observability (off = nullptr; one branch per emit).
  obs::Run* obs_ = nullptr;
  /// Streaming capture (off = nullptr; one branch per emit).
  StreamSink* stream_sink_ = nullptr;
  std::size_t stream_chunk_ = 0;
  /// Records already handed to the sink; bundle_.records holds the
  /// pending ones.
  std::uint64_t stream_consumed_ = 0;
  std::size_t stream_peak_ = 0;
  std::vector<std::uint64_t> rank_posix_counts_;
  /// Posix records per FileId (streaming only): windowed retirement
  /// budgets.
  std::vector<std::uint64_t> file_posix_counts_;
};

}  // namespace pfsem::trace
