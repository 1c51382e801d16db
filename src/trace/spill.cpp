#include "pfsem/trace/spill.hpp"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string_view>
#include <utility>

#include "pfsem/trace/serialize.hpp"
#include "pfsem/trace/varint.hpp"
#include "pfsem/util/error.hpp"

namespace pfsem::trace {

namespace {

constexpr char kChunkMagic[8] = {'P', 'F', 'S', 'E', 'M', 'C', 'K', '1'};
constexpr char kChunkMarker = 'C';
constexpr char kTrailerMarker = 'T';

using detail::get_string;
using detail::get_varint;
using detail::put_varint;
using detail::unzigzag;
using detail::zigzag;

/// Read-only stream whose get area is a borrowed byte buffer.
class MemoryStream final : public std::istream {
 public:
  explicit MemoryStream(std::string_view bytes)
      : std::istream(nullptr), buf_(bytes) {
    rdbuf(&buf_);
  }

 private:
  struct ViewBuf final : std::streambuf {
    explicit ViewBuf(std::string_view bytes) {
      // The get area is never written through; streambuf just wants char*.
      char* const p = const_cast<char*>(bytes.data());
      setg(p, p, p + bytes.size());
    }
  };
  ViewBuf buf_;
};

std::string fresh_spill_path() {
  static std::atomic<unsigned> counter{0};
  const auto n = counter.fetch_add(1, std::memory_order_relaxed);
  const auto name = "pfsem-spill-" + std::to_string(::getpid()) + "-" +
                    std::to_string(n) + ".bin";
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace

SpillStore::SpillStore(std::size_t memory_ceiling)
    : ceiling_(memory_ceiling) {}

SpillStore::~SpillStore() {
  if (!path_.empty()) {
    file_.close();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
}

void SpillStore::append(std::string_view bytes) {
  require(!reading_, "SpillStore::append after open_read");
  if (path_.empty() && mem_.size() + bytes.size() > ceiling_) {
    path_ = fresh_spill_path();
    file_.open(path_, std::ios::binary | std::ios::trunc);
    require(static_cast<bool>(file_), "cannot open spill file " + path_);
    file_.write(mem_.data(), static_cast<std::streamsize>(mem_.size()));
    mem_.clear();
    mem_.shrink_to_fit();
  }
  if (path_.empty()) {
    mem_.append(bytes);
    peak_mem_ = std::max(peak_mem_, mem_.size());
  } else {
    file_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    require(static_cast<bool>(file_), "spill file write failure");
  }
  total_ += bytes.size();
}

std::unique_ptr<std::istream> SpillStore::open_read() {
  reading_ = true;
  if (path_.empty()) {
    // Unspilled: a read-only view of the buffer, no copy. Every call
    // starts a fresh view, so the store stays re-readable.
    return std::make_unique<MemoryStream>(mem_);
  }
  file_.flush();
  auto in = std::make_unique<std::ifstream>(path_, std::ios::binary);
  require(static_cast<bool>(*in), "cannot reopen spill file " + path_);
  return in;
}

ChunkWriter::ChunkWriter(SpillStore& store, int nranks) : store_(store) {
  require(nranks > 0, "ChunkWriter needs a positive rank count");
  last_t_.assign(static_cast<std::size_t>(nranks), 0);
  buf_.assign(kChunkMagic, sizeof kChunkMagic);
  put_varint(buf_, static_cast<std::uint64_t>(nranks));
  store_.append(buf_);
}

void ChunkWriter::on_records(std::uint64_t base_seq,
                             std::span<const Record> records) {
  require(!finished_, "ChunkWriter fed after finish");
  require(base_seq == expected_seq_, "ChunkWriter fed out of order");
  if (records.empty()) return;
  buf_.clear();
  buf_.push_back(kChunkMarker);
  put_varint(buf_, base_seq);
  put_varint(buf_, records.size());
  for (const auto& r : records) {
    auto& prev = last_t_[static_cast<std::size_t>(r.rank)];
    put_varint(buf_, static_cast<std::uint64_t>(r.rank));
    put_varint(buf_, zigzag(r.tstart - prev));  // delta chain spans chunks
    put_varint(buf_, zigzag(r.tend - r.tstart));
    prev = r.tstart;
    put_varint(buf_, static_cast<std::uint64_t>(r.layer) |
                         (static_cast<std::uint64_t>(r.origin) << 3) |
                         (static_cast<std::uint64_t>(r.func) << 6));
    put_varint(buf_, zigzag(r.fd));
    put_varint(buf_, zigzag(r.ret));
    put_varint(buf_, r.offset);
    put_varint(buf_, r.count);
    put_varint(buf_, zigzag(r.flags));
    put_varint(buf_, r.file == kNoFile
                         ? 0
                         : static_cast<std::uint64_t>(r.file) + 1);
  }
  store_.append(buf_);
  expected_seq_ += records.size();
}

void ChunkWriter::finish(const StreamMeta& meta) {
  require(!finished_, "ChunkWriter finished twice");
  require(meta.records == expected_seq_,
          "stream meta record count does not match the chunks written");
  finished_ = true;
  buf_.clear();
  buf_.push_back(kTrailerMarker);
  put_varint(buf_, meta.records);
  put_varint(buf_, meta.paths.size());
  for (std::size_t i = 0; i < meta.paths.size(); ++i) {
    detail::put_string(buf_, meta.paths.view(static_cast<FileId>(i)));
  }
  detail::write_comm(meta.comm, buf_);
  store_.append(buf_);
  std::string().swap(buf_);  // the trailer can dwarf a chunk
}

ChunkReader::ChunkReader(std::istream& is) : is_(is) {
  char magic[8];
  is_.read(magic, sizeof magic);
  require(static_cast<bool>(is_) &&
              std::equal(std::begin(magic), std::end(magic), kChunkMagic),
          "not a pfsem chunk stream");
  nranks_ = static_cast<int>(get_varint(is_));
  require(nranks_ > 0 && nranks_ < (1 << 24), "bad rank count");
  last_t_.assign(static_cast<std::size_t>(nranks_), 0);
}

bool ChunkReader::next(Record& out) {
  while (chunk_left_ == 0) {
    if (at_trailer_) return false;
    const int marker = is_.rdbuf()->sbumpc();
    require(marker != std::char_traits<char>::eof(),
            "truncated chunk stream");
    if (marker == kTrailerMarker) {
      at_trailer_ = true;
      return false;
    }
    require(marker == kChunkMarker, "bad chunk marker in stream");
    const auto base_seq = get_varint(is_);
    require(base_seq == seen_, "out-of-order chunk in stream");
    chunk_left_ = get_varint(is_);
  }
  --chunk_left_;
  ++seen_;
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
  require(func < kFuncCount, "bad function id in chunk stream");
  out.func = static_cast<Func>(func);
  out.fd = static_cast<std::int32_t>(unzigzag(get_varint(is_)));
  out.ret = unzigzag(get_varint(is_));
  out.offset = get_varint(is_);
  out.count = get_varint(is_);
  out.flags = static_cast<std::int32_t>(unzigzag(get_varint(is_)));
  const auto fid = get_varint(is_);
  if (fid == 0) {
    out.file = kNoFile;
  } else {
    out.file = static_cast<FileId>(fid - 1);
    max_file_seen_ = std::max(max_file_seen_, fid - 1);
    any_file_seen_ = true;
  }
  return true;
}

ChunkReader::Trailer ChunkReader::read_trailer() {
  require(at_trailer_, "trailer read before the record stream was drained");
  Trailer t;
  t.records = get_varint(is_);
  require(t.records == seen_, "record count mismatch in chunk stream");
  const auto npaths = get_varint(is_);
  require(npaths <= (1u << 24), "implausible path-table size");
  for (std::uint64_t i = 0; i < npaths; ++i) {
    const std::string s = get_string(is_);
    const FileId id = t.paths.intern(s);
    require(id == static_cast<FileId>(i), "duplicate path in chunk table");
  }
  require(!any_file_seen_ || max_file_seen_ < t.paths.size(),
          "bad path id in chunk stream");
  t.comm = detail::read_comm(is_, nranks_);
  return t;
}

}  // namespace pfsem::trace
