// Compact trace serialization: LEB128 varints, zig-zag signed encoding,
// per-rank timestamp deltas, and an interned path table. This mirrors the
// compression ideas of Recorder 2.0 (whose contribution over Recorder 1
// was exactly that detailed multi-layer traces stay small): HPC I/O
// records are highly regular, so deltas and small ids dominate.
//
// The whole-bundle entry points are thin wrappers over the streaming
// core (write_compact_streamed / CompactReader), so the materialized and
// streaming pipelines share one codec and stay byte-identical.

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/varint.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::trace {

namespace {

constexpr char kMagic2[8] = {'P', 'F', 'S', 'E', 'M', 'T', 'R', '2'};

using detail::get_string;
using detail::get_varint;
using detail::put_string;
using detail::put_varint;
using detail::unzigzag;
using detail::zigzag;

}  // namespace

namespace detail {

void write_comm(const CommLog& comm, std::string& out) {
  put_varint(out, comm.p2p.size());
  for (const auto& e : comm.p2p) {
    put_varint(out, static_cast<std::uint64_t>(e.src));
    put_varint(out, static_cast<std::uint64_t>(e.dst));
    put_varint(out, zigzag(e.tag));
    put_varint(out, e.bytes);
    put_varint(out, zigzag(e.t_send_start));
    put_varint(out, zigzag(e.t_send_end - e.t_send_start));
    put_varint(out, zigzag(e.t_recv_start - e.t_send_start));
    put_varint(out, zigzag(e.t_recv_end - e.t_recv_start));
  }
  put_varint(out, comm.collectives.size());
  for (const auto& c : comm.collectives) {
    put_varint(out, static_cast<std::uint64_t>(c.kind));
    put_varint(out, zigzag(c.root));
    put_varint(out, c.arrivals.size());
    for (const auto& a : c.arrivals) {
      put_varint(out, static_cast<std::uint64_t>(a.rank));
      put_varint(out, zigzag(a.t_enter));
      put_varint(out, zigzag(a.t_exit - a.t_enter));
    }
  }
}

CommLog read_comm(std::istream& is, int nranks) {
  CommLog comm;
  const auto np2p = get_varint(is);
  comm.p2p.reserve(std::min<std::uint64_t>(np2p, 1u << 20));
  for (std::uint64_t i = 0; i < np2p; ++i) {
    P2PEvent e;
    e.src = static_cast<Rank>(get_varint(is));
    e.dst = static_cast<Rank>(get_varint(is));
    e.tag = static_cast<std::int32_t>(unzigzag(get_varint(is)));
    e.bytes = get_varint(is);
    e.t_send_start = unzigzag(get_varint(is));
    e.t_send_end = e.t_send_start + unzigzag(get_varint(is));
    e.t_recv_start = e.t_send_start + unzigzag(get_varint(is));
    e.t_recv_end = e.t_recv_start + unzigzag(get_varint(is));
    comm.p2p.push_back(e);
  }
  const auto ncoll = get_varint(is);
  comm.collectives.reserve(std::min<std::uint64_t>(ncoll, 1u << 20));
  for (std::uint64_t i = 0; i < ncoll; ++i) {
    CollectiveEvent c;
    c.kind = static_cast<CollectiveKind>(get_varint(is));
    c.root = static_cast<Rank>(unzigzag(get_varint(is)));
    const auto na = get_varint(is);
    require(na <= static_cast<std::uint64_t>(nranks), "bad arrival count");
    for (std::uint64_t j = 0; j < na; ++j) {
      CollectiveArrival a;
      a.rank = static_cast<Rank>(get_varint(is));
      a.t_enter = unzigzag(get_varint(is));
      a.t_exit = a.t_enter + unzigzag(get_varint(is));
      c.arrivals.push_back(a);
    }
    comm.collectives.push_back(std::move(c));
  }
  return comm;
}

}  // namespace detail

void write_compact_streamed(int nranks, const PathTable& paths,
                            const CommLog& comm, std::uint64_t record_count,
                            const std::function<void(const RecordEmit&)>& scan,
                            std::ostream& os) {
  os.write(kMagic2, sizeof kMagic2);
  put_varint(os, static_cast<std::uint64_t>(nranks));

  // The on-disk path table is the run's PathTable verbatim, so FileIds
  // survive a round trip unchanged. Records without a path (kNoFile) are
  // stored as a reference to an empty-string entry, appended if the table
  // does not already contain one — the same encoding the pre-interning
  // writer produced for pathless records.
  const FileId empty_id = paths.find("");
  const bool need_empty = empty_id == kNoFile;
  const std::uint64_t npaths = paths.size() + (need_empty ? 1 : 0);
  const std::uint64_t no_file_slot = need_empty ? paths.size() : empty_id;
  put_varint(os, npaths);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    put_string(os, paths.view(static_cast<FileId>(i)));
  }
  if (need_empty) put_string(os, "");

  put_varint(os, record_count);
  std::vector<SimTime> last_t(static_cast<std::size_t>(nranks), 0);
  std::uint64_t emitted = 0;
  scan([&](const Record& r) {
    auto& prev = last_t[static_cast<std::size_t>(r.rank)];
    put_varint(os, static_cast<std::uint64_t>(r.rank));
    put_varint(os, zigzag(r.tstart - prev));  // per-rank delta
    put_varint(os, zigzag(r.tend - r.tstart));
    prev = r.tstart;
    put_varint(os, static_cast<std::uint64_t>(r.layer) |
                       (static_cast<std::uint64_t>(r.origin) << 3) |
                       (static_cast<std::uint64_t>(r.func) << 6));
    put_varint(os, zigzag(r.fd));
    put_varint(os, zigzag(r.ret));
    put_varint(os, r.offset);
    put_varint(os, r.count);
    put_varint(os, zigzag(r.flags));
    put_varint(os, r.file == kNoFile ? no_file_slot
                                     : static_cast<std::uint64_t>(r.file));
    ++emitted;
  });
  require(emitted == record_count,
          "record scan count mismatch in compact trace write");

  std::string comm_bytes;
  detail::write_comm(comm, comm_bytes);
  os.write(comm_bytes.data(), static_cast<std::streamsize>(comm_bytes.size()));
  require(static_cast<bool>(os), "compact trace write failure");
}

void write_compact(const TraceBundle& bundle, std::ostream& os) {
  write_compact_streamed(
      bundle.nranks, bundle.paths, bundle.comm, bundle.records.size(),
      [&](const RecordEmit& emit) {
        for (const auto& r : bundle.records) emit(r);
      },
      os);
}

CompactReader::CompactReader(std::istream& is) : is_(is) {
  char magic[8];
  is_.read(magic, sizeof magic);
  require(static_cast<bool>(is_) &&
              std::equal(std::begin(magic), std::end(magic), kMagic2),
          "not a compact pfsem trace");
  nranks_ = static_cast<int>(get_varint(is_));
  require(nranks_ > 0 && nranks_ < (1 << 24), "bad rank count");

  // Adopt the on-disk intern table directly as the in-memory PathTable:
  // ids in the stream are ids in the decoded records, no per-record
  // string materialization. Empty-string entries stay in the table
  // (records referencing them decode to kNoFile in next()).
  const auto npaths = get_varint(is_);
  require(npaths <= (1u << 24), "implausible path-table size");
  for (std::uint64_t i = 0; i < npaths; ++i) {
    const std::string s = get_string(is_);
    const FileId id = paths_.intern(s);
    require(id == static_cast<FileId>(i), "duplicate path in compact table");
  }

  nrec_ = get_varint(is_);
  last_t_.assign(static_cast<std::size_t>(nranks_), 0);
}

bool CompactReader::next(Record& out) {
  if (read_ == nrec_) return false;
  ++read_;
  const auto rank = get_varint(is_);
  require(rank < static_cast<std::uint64_t>(nranks_), "bad record rank");
  out.rank = static_cast<Rank>(rank);
  auto& prev = last_t_[rank];
  out.tstart = prev + unzigzag(get_varint(is_));
  out.tend = out.tstart + unzigzag(get_varint(is_));
  prev = out.tstart;
  const auto packed = get_varint(is_);
  out.layer = static_cast<Layer>(packed & 0x7);
  out.origin = static_cast<Layer>((packed >> 3) & 0x7);
  const auto func = packed >> 6;
  require(func < kFuncCount, "bad function id in compact trace");
  out.func = static_cast<Func>(func);
  out.fd = static_cast<std::int32_t>(unzigzag(get_varint(is_)));
  out.ret = unzigzag(get_varint(is_));
  out.offset = get_varint(is_);
  out.count = get_varint(is_);
  out.flags = static_cast<std::int32_t>(unzigzag(get_varint(is_)));
  const auto pid = get_varint(is_);
  require(pid < paths_.size(), "bad path id in compact trace");
  const auto id = static_cast<FileId>(pid);
  out.file = paths_.view(id).empty() ? kNoFile : id;
  return true;
}

CommLog CompactReader::read_comm() {
  require(read_ == nrec_, "comm log read before records were drained");
  return detail::read_comm(is_, nranks_);
}

TraceBundle read_compact(std::istream& is) {
  CompactReader reader(is);
  TraceBundle b;
  b.nranks = reader.nranks();
  b.paths = reader.paths();
  b.records.reserve(std::min<std::uint64_t>(reader.record_count(), 1u << 20));
  Record r;
  while (reader.next(r)) b.records.push_back(r);
  b.comm = reader.read_comm();
  return b;
}

}  // namespace pfsem::trace
