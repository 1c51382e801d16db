#pragma once
// LEB128 varint and zig-zag primitives shared by the compact (v2) codec
// (compact.cpp) and the chunked spill codec (spill.hpp). Decoding reads
// the stream's buffer directly; the string encoders append to a byte
// buffer for hot paths that batch a whole chunk or comm log before
// touching the stream. Both sides of every format in the repository use
// exactly these functions, so the encodings cannot drift apart.

#include <cstdint>
#include <istream>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>

#include "pfsem/util/error.hpp"

namespace pfsem::trace::detail {

inline void put_varint(std::ostream& os, std::uint64_t v) {
  while (v >= 0x80) {
    os.put(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  os.put(static_cast<char>(v));
}

inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Decodes straight from the stream buffer: istream::get() would build a
/// sentry per byte, which dominated chunk replay.
inline std::uint64_t get_varint(std::streambuf& buf) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    const int c = buf.sbumpc();
    require(c != std::char_traits<char>::eof(), "truncated compact trace");
    require(shift < 64, "overlong varint in compact trace");
    v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
    if (!(c & 0x80)) break;
    shift += 7;
  }
  return v;
}

inline std::uint64_t get_varint(std::istream& is) {
  return get_varint(*is.rdbuf());
}

constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

inline void put_string(std::ostream& os, std::string_view s) {
  put_varint(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s);
}

inline std::string get_string(std::istream& is) {
  const auto n = get_varint(is);
  require(n <= (1u << 20), "implausible string length in compact trace");
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  require(static_cast<bool>(is), "truncated compact trace");
  return s;
}

}  // namespace pfsem::trace::detail
