// Robustness tests for the trace codecs, plus on-disk compatibility
// fixtures. The compact (v2) format is LEB128 varints + zig-zag signed
// fields + an interned path table; these tests pin down its behaviour at
// the integer extremes and on malformed input, and the Compat suite
// hand-crafts pre-interning v1/v2 byte streams to prove that traces
// written before the FileId refactor still load and analyse identically
// to bundles built in memory today.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "pfsem/core/conflict.hpp"
#include "pfsem/core/offset_tracker.hpp"
#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/spill.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::trace {
namespace {

// --- fixture-crafting helpers (independent re-implementations of the
// on-disk encodings, so a writer bug cannot hide behind a matching
// reader bug) -----------------------------------------------------------

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t zz(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

template <typename T>
void put_le(std::string& out, T v) {
  char b[sizeof v];
  std::memcpy(b, &v, sizeof v);
  out.append(b, sizeof v);
}

Record make_record(Rank rank, SimTime t0, SimTime t1, Func func, int fd,
                   std::int64_t ret, Offset off, std::uint64_t count,
                   std::int32_t flags, FileId file) {
  Record r;
  r.tstart = t0;
  r.tend = t1;
  r.rank = rank;
  r.layer = Layer::Posix;
  r.origin = Layer::App;
  r.func = func;
  r.fd = fd;
  r.ret = ret;
  r.offset = off;
  r.count = count;
  r.flags = flags;
  r.file = file;
  return r;
}

/// Everything the analysis pipeline concludes from a bundle, as text:
/// per-file reconstructed accesses plus the conflict report.
std::string analysis_fingerprint(const TraceBundle& b) {
  const auto log = core::reconstruct_accesses(b);
  const auto rep = core::detect_conflicts(log);
  std::ostringstream os;
  os << log.nranks << '|' << log.file_count() << '\n';
  for (const FileId id : log.ids_by_path()) {
    os << log.path(id) << ':';
    for (const auto& a : log.files[id].accesses) {
      os << ' ' << a.t << ',' << a.rank << ',' << a.ext.begin << ','
         << a.ext.end << ',' << core::to_string(a.type) << ',' << a.t_open
         << ',' << a.t_commit << ',' << a.t_close;
    }
    os << '\n';
  }
  os << rep.potential_pairs << '|' << rep.session.count << rep.session.waw_s
     << rep.session.waw_d << rep.session.raw_s << rep.session.raw_d << '|'
     << rep.commit.count << rep.commit.waw_s << rep.commit.waw_d
     << rep.commit.raw_s << rep.commit.raw_d << '\n';
  for (const auto& c : rep.conflicts) {
    os << log.path(c.file) << ' ' << core::to_string(c.kind) << ' '
       << c.first.rank << ',' << c.first.t << ' ' << c.second.rank << ','
       << c.second.t << ' ' << c.same_process << c.under_commit
       << c.under_session << '\n';
  }
  return os.str();
}

/// The producer/consumer trace both Compat fixtures encode: rank 0
/// creates "shared" and writes [0, 100); rank 1 opens it and reads the
/// same range with no commit in between (a RAW conflict pair).
TraceBundle reference_bundle() {
  TraceBundle b;
  b.nranks = 2;
  const FileId shared = b.intern("shared");
  b.records.push_back(make_record(0, 100, 105, Func::open, 3, 3, 0, 0,
                                  kCreate | kRdWr, shared));
  b.records.push_back(
      make_record(0, 110, 120, Func::pwrite, 3, 100, 0, 100, 0, kNoFile));
  b.records.push_back(
      make_record(0, 130, 131, Func::close, 3, 0, 0, 0, 0, kNoFile));
  b.records.push_back(
      make_record(1, 200, 205, Func::open, 3, 3, 0, 0, kRdWr, shared));
  b.records.push_back(
      make_record(1, 210, 220, Func::pread, 3, 100, 0, 100, 0, kNoFile));
  b.records.push_back(
      make_record(1, 230, 231, Func::close, 3, 0, 0, 0, 0, kNoFile));
  return b;
}

// --- compact-codec robustness ------------------------------------------

TEST(CompactCodec, ZigZagAndVarintExtremesRoundTrip) {
  TraceBundle b;
  b.nranks = 1;
  const FileId f = b.intern("extremes");
  auto r = make_record(0, 0, 1, Func::pwrite, 3,
                       std::numeric_limits<std::int64_t>::min(),
                       std::numeric_limits<Offset>::max(),
                       std::numeric_limits<std::uint64_t>::max(),
                       std::numeric_limits<std::int32_t>::min(), f);
  b.records.push_back(r);
  r.ret = std::numeric_limits<std::int64_t>::max();
  r.fd = std::numeric_limits<std::int32_t>::max();
  r.flags = std::numeric_limits<std::int32_t>::max();
  r.tstart = 2;
  r.tend = 2;
  b.records.push_back(r);

  std::stringstream ss;
  write_compact(b, ss);
  const auto copy = read_compact(ss);
  ASSERT_EQ(copy.records.size(), 2u);
  EXPECT_EQ(copy.records[0].ret, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(copy.records[0].offset, std::numeric_limits<Offset>::max());
  EXPECT_EQ(copy.records[0].count, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(copy.records[0].flags, std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(copy.records[1].ret, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(copy.records[1].fd, std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(copy.records[1].flags, std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(copy.path_of(copy.records[0]), "extremes");
}

TEST(CompactCodec, OverlongVarintRejected) {
  // 11 continuation bytes push the decoder's shift past 64 bits; it must
  // fail loudly instead of silently wrapping.
  std::string s("PFSEMTR2", 8);
  s.append(11, static_cast<char>(0x80));
  std::istringstream is(s);
  EXPECT_THROW((void)read_compact(is), Error);
}

TEST(CompactCodec, BadMagicRejected) {
  std::istringstream is(std::string("PFSEMTRX", 8) + "\x01");
  EXPECT_THROW((void)read_compact(is), Error);
}

TEST(CompactCodec, EveryTruncationThrows) {
  std::stringstream ss;
  write_compact(reference_bundle(), ss);
  const std::string full = ss.str();
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::istringstream is(full.substr(0, len));
    EXPECT_THROW((void)read_compact(is), Error) << "prefix length " << len;
  }
}

TEST(CompactCodec, DuplicatePathTableEntryRejected) {
  std::string s("PFSEMTR2", 8);
  put_varint(s, 1);  // nranks
  put_varint(s, 2);  // two path entries...
  put_varint(s, 1);
  s += "a";
  put_varint(s, 1);  // ...that collide
  s += "a";
  std::istringstream is(s);
  EXPECT_THROW((void)read_compact(is), Error);
}

TEST(CompactCodec, EmptyPathTableRoundTrips) {
  // A bundle whose records never name a file (pathless metadata ops) has
  // an empty in-memory table; the writer's synthesized empty-string slot
  // must decode back to kNoFile.
  TraceBundle b;
  b.nranks = 1;
  b.records.push_back(
      make_record(0, 10, 11, Func::umask, -1, 0, 0, 0, 022, kNoFile));
  std::stringstream ss;
  write_compact(b, ss);
  const auto copy = read_compact(ss);
  ASSERT_EQ(copy.records.size(), 1u);
  EXPECT_EQ(copy.records[0].file, kNoFile);
  EXPECT_EQ(copy.path_of(copy.records[0]), "");
}

TEST(CompactCodec, EmptyBundleRoundTrips) {
  TraceBundle b;
  b.nranks = 4;
  std::stringstream ss;
  write_compact(b, ss);
  const auto copy = read_compact(ss);
  EXPECT_EQ(copy.nranks, 4);
  EXPECT_TRUE(copy.records.empty());
  EXPECT_TRUE(copy.comm.p2p.empty());
  EXPECT_TRUE(copy.comm.collectives.empty());
}

// --- pre-refactor on-disk compatibility --------------------------------

TEST(SerializationCompat, V1InlinePathFixtureAnalysesIdentically) {
  // Byte-for-byte what the pre-interning v1 writer produced: fixed-width
  // little-endian fields with the path string inline in each record
  // (empty for pathless records).
  std::string s("PFSEMTRC", 8);
  put_le<std::uint32_t>(s, 1);  // version
  put_le<std::int32_t>(s, 2);   // nranks
  put_le<std::uint64_t>(s, 6);  // records
  const auto rec = [&](std::int64_t t0, std::int64_t t1, Rank rank, Func func,
                       std::int32_t fd, std::int64_t ret, std::uint64_t off,
                       std::uint64_t count, std::int32_t flags,
                       const std::string& path) {
    put_le(s, t0);
    put_le(s, t1);
    put_le(s, rank);
    s.push_back(0);  // layer = Posix
    s.push_back(6);  // origin = App
    put_le<std::uint16_t>(s, static_cast<std::uint16_t>(func));
    put_le(s, fd);
    put_le(s, ret);
    put_le(s, off);
    put_le(s, count);
    put_le(s, flags);
    put_le<std::uint32_t>(s, static_cast<std::uint32_t>(path.size()));
    s += path;
  };
  rec(100, 105, 0, Func::open, 3, 3, 0, 0, kCreate | kRdWr, "shared");
  rec(110, 120, 0, Func::pwrite, 3, 100, 0, 100, 0, "");
  rec(130, 131, 0, Func::close, 3, 0, 0, 0, 0, "");
  rec(200, 205, 1, Func::open, 3, 3, 0, 0, kRdWr, "shared");
  rec(210, 220, 1, Func::pread, 3, 100, 0, 100, 0, "");
  rec(230, 231, 1, Func::close, 3, 0, 0, 0, 0, "");
  put_le<std::uint64_t>(s, 0);  // p2p
  put_le<std::uint64_t>(s, 0);  // collectives

  std::istringstream is(s);
  const auto loaded = read_binary(is);
  ASSERT_EQ(loaded.records.size(), 6u);
  EXPECT_EQ(loaded.path_of(loaded.records[0]), "shared");
  EXPECT_EQ(loaded.records[1].file, kNoFile);
  EXPECT_EQ(analysis_fingerprint(loaded),
            analysis_fingerprint(reference_bundle()));
}

TEST(SerializationCompat, V2PathTableFixtureAnalysesIdentically) {
  // Byte-for-byte what the pre-refactor v2 writer produced: a leading
  // path table ("shared" then the synthesized empty slot) and per-record
  // table references, varint/zig-zag encoded with per-rank time deltas.
  std::string s("PFSEMTR2", 8);
  put_varint(s, 2);  // nranks
  put_varint(s, 2);  // path table: "shared", ""
  put_varint(s, 6);
  s += "shared";
  put_varint(s, 0);
  put_varint(s, 6);  // records
  std::int64_t prev[2] = {0, 0};
  const auto rec = [&](std::int64_t t0, std::int64_t t1, Rank rank, Func func,
                       std::int64_t fd, std::int64_t ret, std::uint64_t off,
                       std::uint64_t count, std::int64_t flags,
                       std::uint64_t path_id) {
    put_varint(s, static_cast<std::uint64_t>(rank));
    put_varint(s, zz(t0 - prev[rank]));
    put_varint(s, zz(t1 - t0));
    prev[rank] = t0;
    put_varint(s, 0 | (6u << 3) |
                      (static_cast<std::uint64_t>(func) << 6));  // Posix/App
    put_varint(s, zz(fd));
    put_varint(s, zz(ret));
    put_varint(s, off);
    put_varint(s, count);
    put_varint(s, zz(flags));
    put_varint(s, path_id);
  };
  rec(100, 105, 0, Func::open, 3, 3, 0, 0, kCreate | kRdWr, 0);
  rec(110, 120, 0, Func::pwrite, 3, 100, 0, 100, 0, 1);
  rec(130, 131, 0, Func::close, 3, 0, 0, 0, 0, 1);
  rec(200, 205, 1, Func::open, 3, 3, 0, 0, kRdWr, 0);
  rec(210, 220, 1, Func::pread, 3, 100, 0, 100, 0, 1);
  rec(230, 231, 1, Func::close, 3, 0, 0, 0, 0, 1);
  put_varint(s, 0);  // p2p
  put_varint(s, 0);  // collectives

  std::istringstream is(s);
  const auto loaded = read_compact(is);
  ASSERT_EQ(loaded.records.size(), 6u);
  EXPECT_EQ(loaded.path_of(loaded.records[0]), "shared");
  EXPECT_EQ(loaded.records[1].file, kNoFile);
  EXPECT_EQ(analysis_fingerprint(loaded),
            analysis_fingerprint(reference_bundle()));
}

// --- chunked streaming framing (PFSEMCK1) ------------------------------

/// Byte-for-byte what the chunk writer produces for reference_bundle()
/// split into two 3-record chunks: pinned independently so the on-disk
/// framing can never drift without this fixture failing. Unlike compact
/// v2, the chunk encoding needs no synthesized empty path slot — the
/// file field is 0 for kNoFile, id+1 otherwise.
std::string chunk_fixture() {
  std::string s("PFSEMCK1", 8);
  put_varint(s, 2);  // nranks
  std::int64_t prev[2] = {0, 0};
  const auto rec = [&](std::int64_t t0, std::int64_t t1, Rank rank, Func func,
                       std::int64_t fd, std::int64_t ret, std::uint64_t off,
                       std::uint64_t count, std::int64_t flags,
                       std::uint64_t file_plus_1) {
    put_varint(s, static_cast<std::uint64_t>(rank));
    put_varint(s, zz(t0 - prev[rank]));
    put_varint(s, zz(t1 - t0));
    prev[rank] = t0;
    put_varint(s, 0 | (6u << 3) |
                      (static_cast<std::uint64_t>(func) << 6));  // Posix/App
    put_varint(s, zz(fd));
    put_varint(s, zz(ret));
    put_varint(s, off);
    put_varint(s, count);
    put_varint(s, zz(flags));
    put_varint(s, file_plus_1);
  };
  s.push_back('C');  // chunk at seq 0, 3 records (rank 0's)
  put_varint(s, 0);
  put_varint(s, 3);
  rec(100, 105, 0, Func::open, 3, 3, 0, 0, kCreate | kRdWr, 1);
  rec(110, 120, 0, Func::pwrite, 3, 100, 0, 100, 0, 0);
  rec(130, 131, 0, Func::close, 3, 0, 0, 0, 0, 0);
  s.push_back('C');  // chunk at seq 3, 3 records (rank 1's)
  put_varint(s, 3);
  put_varint(s, 3);
  rec(200, 205, 1, Func::open, 3, 3, 0, 0, kRdWr, 1);
  rec(210, 220, 1, Func::pread, 3, 100, 0, 100, 0, 0);
  rec(230, 231, 1, Func::close, 3, 0, 0, 0, 0, 0);
  s.push_back('T');  // trailer: 6 records, one path, empty comm log
  put_varint(s, 6);
  put_varint(s, 1);
  put_varint(s, 6);
  s += "shared";
  put_varint(s, 0);  // p2p
  put_varint(s, 0);  // collectives
  return s;
}

/// Drain a chunk stream back into a TraceBundle (records + trailer
/// paths; the trailer's comm section is validated, not kept).
TraceBundle decode_chunks(std::istream& is) {
  ChunkReader reader(is);
  TraceBundle b;
  b.nranks = reader.nranks();
  Record rec;
  while (reader.next(rec)) b.records.push_back(rec);
  auto trailer = reader.read_trailer();
  b.paths = std::move(trailer.paths);
  return b;
}

TraceBundle decode_chunks(const std::string& bytes) {
  std::istringstream is(bytes);
  return decode_chunks(is);
}

TEST(ChunkStream, WriterMatchesHandCraftedFixtureExactly) {
  const auto b = reference_bundle();
  SpillStore store(1u << 20);
  {
    ChunkWriter writer(store, b.nranks);
    writer.on_records(0, std::span<const Record>(b.records).subspan(0, 3));
    writer.on_records(3, std::span<const Record>(b.records).subspan(3, 3));
    StreamMeta meta;
    meta.nranks = b.nranks;
    meta.paths = b.paths;
    meta.records = 6;
    writer.finish(meta);
  }
  const auto in = store.open_read();
  const std::string written(std::istreambuf_iterator<char>(*in), {});
  ASSERT_EQ(written, chunk_fixture());
}

TEST(ChunkStream, FixtureDecodesAndAnalysesIdentically) {
  const auto loaded = decode_chunks(chunk_fixture());
  ASSERT_EQ(loaded.records.size(), 6u);
  EXPECT_EQ(loaded.path_of(loaded.records[0]), "shared");
  EXPECT_EQ(loaded.records[1].file, kNoFile);
  EXPECT_EQ(analysis_fingerprint(loaded),
            analysis_fingerprint(reference_bundle()));
}

TEST(ChunkStream, EveryTruncationThrows) {
  const std::string full = chunk_fixture();
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_THROW((void)decode_chunks(full.substr(0, len)), Error)
        << "prefix length " << len;
  }
}

TEST(ChunkStream, EmptyChunkTolerated) {
  // A zero-record chunk is valid framing (the writer skips them, but a
  // reader must not choke on one): splice 'C' <seq> <0> between chunks.
  const std::string full = chunk_fixture();
  const auto second = full.find('C', full.find('C', 8) + 1);
  ASSERT_NE(second, std::string::npos);
  std::string spliced = full.substr(0, second);
  spliced.push_back('C');
  put_varint(spliced, 3);  // base_seq continues the count
  put_varint(spliced, 0);  // zero records
  spliced += full.substr(second);
  EXPECT_EQ(analysis_fingerprint(decode_chunks(spliced)),
            analysis_fingerprint(reference_bundle()));
}

TEST(ChunkStream, OutOfOrderChunkRejected) {
  // A chunk whose base_seq does not continue the stream means a lost or
  // reordered chunk; the reader must fail loudly, not mis-merge.
  std::string s("PFSEMCK1", 8);
  put_varint(s, 2);  // nranks
  s.push_back('C');
  put_varint(s, 4);  // base_seq 4 in a stream that has seen 0 records
  put_varint(s, 1);
  EXPECT_THROW((void)decode_chunks(s), Error);
}

TEST(ChunkStream, BadMagicRejected) {
  std::string s("PFSEMCKX", 8);
  put_varint(s, 2);
  EXPECT_THROW((void)decode_chunks(s), Error);
}

TEST(ChunkStream, TrailerRecordCountMismatchRejected) {
  // Trailer claiming more records than the chunks carried: a truncated
  // middle (whole missing chunk) that per-chunk checks cannot see.
  std::string s = chunk_fixture();
  const auto t = s.rfind('T');
  ASSERT_NE(t, std::string::npos);
  std::string bad = s.substr(0, t);
  bad.push_back('T');
  put_varint(bad, 9);  // stream carried 6
  bad += s.substr(t + 2);
  EXPECT_THROW((void)decode_chunks(bad), Error);
}


// --- the trailer's comm section ----------------------------------------

/// A comm log of `ncoll` world collectives over `nranks` ranks plus
/// `np2p` messages, with times and sizes that vary so every varint width
/// shows up.
CommLog synthetic_comm(int nranks, int ncoll, int np2p) {
  CommLog comm;
  for (int i = 0; i < np2p; ++i) {
    P2PEvent e;
    e.src = i % nranks;
    e.dst = (i * 7 + 1) % nranks;
    e.tag = i % 5 - 2;
    e.bytes = std::uint64_t{1} << (i % 40);
    e.t_send_start = 1000 + 37 * i;
    e.t_send_end = e.t_send_start + i % 300;
    e.t_recv_start = e.t_send_start + i % 11;
    e.t_recv_end = e.t_recv_start + 90000 + i;
    comm.p2p.push_back(e);
  }
  for (int c = 0; c < ncoll; ++c) {
    CollectiveEvent ev;
    ev.kind = static_cast<CollectiveKind>(c % 8);
    ev.root = c % 2 == 0 ? kNoRank : c % nranks;
    for (int r = 0; r < nranks; ++r) {
      const SimTime t = 5'000'000 + SimTime{c} * 100'000 + (r * 13) % 977;
      ev.arrivals.push_back({(r * 5 + c) % nranks, t, t + 4000 + r % 3});
    }
    comm.collectives.push_back(std::move(ev));
  }
  return comm;
}

void expect_same_comm(const CommLog& a, const CommLog& b) {
  ASSERT_EQ(a.p2p.size(), b.p2p.size());
  for (std::size_t i = 0; i < a.p2p.size(); ++i) {
    const auto &x = a.p2p[i], &y = b.p2p[i];
    ASSERT_EQ(std::tie(x.src, x.dst, x.tag, x.bytes, x.t_send_start,
                       x.t_send_end, x.t_recv_start, x.t_recv_end),
              std::tie(y.src, y.dst, y.tag, y.bytes, y.t_send_start,
                       y.t_send_end, y.t_recv_start, y.t_recv_end))
        << "p2p " << i;
  }
  ASSERT_EQ(a.collectives.size(), b.collectives.size());
  for (std::size_t i = 0; i < a.collectives.size(); ++i) {
    const auto &x = a.collectives[i], &y = b.collectives[i];
    ASSERT_EQ(x.kind, y.kind) << "collective " << i;
    ASSERT_EQ(x.root, y.root) << "collective " << i;
    ASSERT_EQ(x.arrivals.size(), y.arrivals.size()) << "collective " << i;
    for (std::size_t j = 0; j < x.arrivals.size(); ++j) {
      ASSERT_EQ(std::tie(x.arrivals[j].rank, x.arrivals[j].t_enter,
                         x.arrivals[j].t_exit),
                std::tie(y.arrivals[j].rank, y.arrivals[j].t_enter,
                         y.arrivals[j].t_exit))
          << "collective " << i << " arrival " << j;
    }
  }
}

/// The chunk stream a writer produces for reference_bundle()'s records
/// (one chunk) with `comm` as the trailer's comm log, on `store`.
void write_with_comm(SpillStore& store, const CommLog& comm, int nranks) {
  const auto b = reference_bundle();
  ChunkWriter writer(store, nranks);
  writer.on_records(0, b.records);
  StreamMeta meta;
  meta.nranks = nranks;
  meta.paths = b.paths;
  meta.comm = comm;
  meta.records = b.records.size();
  writer.finish(meta);
}

/// chunk_fixture() with its (empty) comm section replaced by `comm`
/// encoded by detail::write_comm, and nranks by `nranks`: what
/// ChunkWriter must produce, however it cuts the trailer.
std::string fixture_with_comm(const CommLog& comm, int nranks) {
  std::string s = chunk_fixture();
  s.resize(s.size() - 2);  // drop the two empty-log varints
  std::string comm_bytes;
  detail::write_comm(comm, comm_bytes);
  s += comm_bytes;
  std::string head("PFSEMCK1", 8);
  put_varint(head, static_cast<std::uint64_t>(nranks));
  return head + s.substr(9);  // chunk_fixture()'s nranks is one byte
}

/// The same records in one chunk instead of two, so the expected bytes
/// come from a single chunk header.
std::string one_chunk(std::string two_chunks) {
  const auto second = two_chunks.find('C', two_chunks.find('C', 8) + 1);
  two_chunks.erase(second, 3);  // 'C' varint(3) varint(3)
  const auto first = two_chunks.find('C', 8);
  two_chunks[first + 2] = 6;  // the first chunk now carries all 6 records
  return two_chunks;
}

std::string store_bytes(SpillStore& store) {
  const auto in = store.open_read();
  return {std::istreambuf_iterator<char>(*in), {}};
}

TEST(ChunkStream, PiecewiseTrailerMatchesWriteCommInMemoryAndSpilled) {
  // 12 collectives over 40000 ranks plus 6000 messages: ~3.5 MB of comm
  // log, so the trailer crosses the piecewise flush several times.
  constexpr int kRanks = 40000;
  const CommLog comm = synthetic_comm(kRanks, 12, 6000);
  const std::string expected = one_chunk(fixture_with_comm(comm, kRanks));
  ASSERT_GT(expected.size(), 3 * detail::kCommPiece);

  SpillStore in_memory;
  write_with_comm(in_memory, comm, kRanks);
  ASSERT_FALSE(in_memory.spilled());
  EXPECT_EQ(in_memory.bytes(), expected.size());
  EXPECT_EQ(in_memory.peak_memory(), expected.size());
  ASSERT_EQ(store_bytes(in_memory), expected);

  // A ceiling below the first chunk: the trailer lands in the file.
  SpillStore spilled(64);
  write_with_comm(spilled, comm, kRanks);
  ASSERT_TRUE(spilled.spilled());
  ASSERT_EQ(store_bytes(spilled), expected);

  // The reader walks both stores' trailers, and the comm suffix decodes
  // back to the log.
  for (SpillStore* store : {&in_memory, &spilled}) {
    const auto in = store->open_read();
    EXPECT_EQ(decode_chunks(*in).records.size(), 6u);
  }
  std::string comm_bytes;
  detail::write_comm(comm, comm_bytes);
  std::istringstream suffix(expected.substr(expected.size() - comm_bytes.size()));
  expect_same_comm(detail::read_comm(suffix, kRanks), comm);
}

TEST(ChunkStream, EveryTruncationInsideCommSectionThrows) {
  const CommLog comm = synthetic_comm(3, 4, 5);
  const std::string full = fixture_with_comm(comm, 3);
  std::string comm_bytes;
  detail::write_comm(comm, comm_bytes);
  ASSERT_EQ(full.substr(full.size() - comm_bytes.size()), comm_bytes);
  EXPECT_NO_THROW((void)decode_chunks(full));
  for (std::size_t len = full.size() - comm_bytes.size(); len < full.size();
       ++len) {
    EXPECT_THROW((void)decode_chunks(full.substr(0, len)), Error)
        << "prefix length " << len;
  }
}

/// The error read_trailer() raises on `bytes`, or "" if it accepts them.
std::string walk_error(const std::string& bytes) {
  try {
    (void)decode_chunks(bytes);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ChunkStream, BadArrivalCountOrRankRejectedWithoutMaterializing) {
  // chunk_fixture() is a 2-rank stream whose trailer ends in an empty
  // comm log; splice in one-event logs with a bad field.
  std::string base = chunk_fixture();
  base.resize(base.size() - 2);
  const auto with_log = [&](const auto& build) {
    std::string s = base;
    build(s);
    return s;
  };
  const auto collective = [](std::string& s, std::uint64_t na,
                             std::uint64_t rank) {
    put_varint(s, 0);  // p2p
    put_varint(s, 1);  // one collective
    put_varint(s, static_cast<std::uint64_t>(CollectiveKind::Barrier));
    put_varint(s, zz(kNoRank));
    put_varint(s, na);
    put_varint(s, rank);
    put_varint(s, zz(10));
    put_varint(s, zz(5));
  };
  const std::string good =
      with_log([&](std::string& s) { collective(s, 1, 1); });
  EXPECT_EQ(walk_error(good), "");

  const std::string bad_count =
      with_log([&](std::string& s) { collective(s, 3, 1); });
  EXPECT_NE(walk_error(bad_count).find("bad arrival count"),
            std::string::npos)
      << walk_error(bad_count);

  const std::string bad_rank =
      with_log([&](std::string& s) { collective(s, 1, 5); });
  EXPECT_NE(walk_error(bad_rank).find(
                "collective 0: arrival rank 5 out of range [0, 2)"),
            std::string::npos)
      << walk_error(bad_rank);

  const std::string bad_p2p = with_log([](std::string& s) {
    put_varint(s, 1);  // one message, 0 -> 2
    for (const std::uint64_t v : {0, 2, 0, 8, 0, 0, 0, 0}) put_varint(s, v);
    put_varint(s, 0);  // collectives
  });
  EXPECT_NE(walk_error(bad_p2p).find("p2p event 0: rank 2 out of range [0, 2)"),
            std::string::npos)
      << walk_error(bad_p2p);
}

TEST(ChunkStream, SegmentedStoreDecodesAtEverySplit) {
  // The store hands its segments to the reader one by one; a varint or a
  // path string cut by a segment boundary must decode as if contiguous.
  const std::string full = chunk_fixture();
  const std::string oracle = analysis_fingerprint(decode_chunks(full));
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    SpillStore store;
    store.append(full.substr(0, cut));
    store.append(full.substr(cut));
    for (int pass = 0; pass < 2; ++pass) {  // re-readable
      const auto in = store.open_read();
      ASSERT_EQ(analysis_fingerprint(decode_chunks(*in)), oracle)
          << "cut at " << cut << " pass " << pass;
    }
  }
}

}  // namespace
}  // namespace pfsem::trace
