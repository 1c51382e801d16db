#include "pfsem/trace/collector.hpp"

#include <algorithm>
#include <utility>

namespace pfsem::trace {

void Collector::reserve(int nranks, std::size_t per_rank_hint) {
  require(nranks == bundle_.nranks,
          "reserve(): rank count does not match this collector");
  if (stream_sink_ != nullptr) {
    // A streaming run never holds more than one chunk of pending records,
    // so cap the pre-size: a 64K-rank streaming run must not reserve a
    // whole bundle's worth of capacity up front.
    per_rank_hint = std::min(
        per_rank_hint,
        stream_chunk_ / static_cast<std::size_t>(nranks) + 1);
  }
  bundle_.records.reserve(static_cast<std::size_t>(nranks) * per_rank_hint);
}

void Collector::enable_streaming(StreamSink* sink, std::size_t chunk_records) {
  require(sink != nullptr, "enable_streaming needs a sink");
  require(chunk_records > 0, "enable_streaming needs a positive chunk size");
  require(size() == 0,
          "enable_streaming must be called before capture starts");
  stream_sink_ = sink;
  stream_chunk_ = chunk_records;
  rank_posix_counts_.assign(static_cast<std::size_t>(bundle_.nranks), 0);
  file_posix_counts_.clear();
}

void Collector::flush_stream() {
  const std::size_t pending = bundle_.records.size();
  if (pending == 0) return;
  if (obs_ != nullptr) {
    obs_->metrics.add(obs_->trace_flushes);
    const auto bytes = static_cast<std::int64_t>(pending * sizeof(Record));
    if (bytes > obs_->metrics.value(obs_->trace_arena_bytes)) {
      obs_->metrics.set(obs_->trace_arena_bytes, bytes);
    }
  }
  stream_peak_ = std::max(stream_peak_, pending);
  stream_sink_->on_records(stream_consumed_, bundle_.records);
  bundle_.records.clear();
  stream_consumed_ += pending;
  // Chunk boundaries are also the observability flush points: spans
  // buffered since the last chunk go out with it.
  if (obs_ != nullptr && obs_->tracing()) obs_->tracer.flush_stream();
}

StreamMeta Collector::take_stream() {
  require(stream_sink_ != nullptr, "collector is not in streaming mode");
  flush_stream();
  if (obs_ != nullptr) {
    obs_->metrics.set(obs_->trace_files,
                      static_cast<std::int64_t>(bundle_.paths.size()));
  }
  StreamMeta meta;
  meta.nranks = bundle_.nranks;
  meta.records = stream_consumed_;
  // Same column-hint contract as take() (paths interned but never
  // attached to a record get a zero hint).
  file_counts_.resize(bundle_.paths.size(), 0);
  meta.file_op_counts = std::move(file_counts_);
  file_counts_ = {};
  meta.rank_posix_counts = std::move(rank_posix_counts_);
  // Exact per-file retirement budgets (paths interned but never attached
  // to a Posix record keep a zero budget — the windowed analyzer treats
  // zero as "retire only at finish").
  file_posix_counts_.resize(bundle_.paths.size(), 0);
  meta.file_posix_counts = std::move(file_posix_counts_);
  file_posix_counts_ = {};
  meta.paths = std::move(bundle_.paths);
  meta.comm = std::move(bundle_.comm);
  const int nranks = bundle_.nranks;
  bundle_ = TraceBundle{};
  bundle_.nranks = nranks;
  rank_posix_counts_.assign(static_cast<std::size_t>(nranks), 0);
  stream_consumed_ = 0;
  return meta;
}

void Collector::note_obs(const Record& r) {
  obs::MetricsRegistry& m = obs_->metrics;
  m.add(obs_->trace_records);
  m.add(obs_->io_ops);
  switch (r.func) {
    case Func::read:
    case Func::pread:
    case Func::fread:
      m.add(obs_->io_reads);
      m.add(obs_->io_read_bytes, r.count);
      m.observe(obs_->io_read_size, r.count);
      break;
    case Func::write:
    case Func::pwrite:
    case Func::fwrite:
      m.add(obs_->io_writes);
      m.add(obs_->io_write_bytes, r.count);
      m.observe(obs_->io_write_size, r.count);
      break;
    default:
      if (is_metadata_func(r.func)) m.add(obs_->io_meta);
      break;
  }
  if (obs_->tracing()) {
    // to_string(Func) views a stringized literal, so .data() is a stable
    // null-terminated name the tracer can keep by pointer.
    obs_->tracer.complete(
        {obs::kPidIo, r.rank}, to_string(r.func).data(), r.tstart,
        r.tend - r.tstart, {"bytes", static_cast<std::int64_t>(r.count)},
        {"file", r.file == kNoFile ? std::int64_t{-1}
                                   : static_cast<std::int64_t>(r.file)});
  }
}

TraceBundle Collector::take() {
  require(stream_sink_ == nullptr,
          "collector is in streaming mode; use take_stream()");
  if (obs_ != nullptr) {
    obs_->metrics.set(obs_->trace_files,
                      static_cast<std::int64_t>(bundle_.paths.size()));
  }
  // Attach the per-file column hints, sized to the full path table
  // (paths interned but never attached to a record get a zero hint).
  file_counts_.resize(bundle_.paths.size(), 0);
  bundle_.file_op_counts = std::move(file_counts_);
  file_counts_ = {};
  return std::exchange(bundle_, TraceBundle{});
}

}  // namespace pfsem::trace
