#include "util/bytes.hpp"

#include <array>

namespace msw {

void Writer::bytes(std::span<const Byte> b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b);
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

Bytes Reader::bytes() {
  const auto n = u32();
  auto b = take(n);
  return Bytes(b.begin(), b.end());
}

std::string Reader::str() {
  const auto n = u32();
  auto b = take(n);
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

std::uint32_t Reader::count(std::size_t min_elem_bytes) {
  const std::uint32_t n = u32();
  if (n > remaining() / min_elem_bytes) {
    throw DecodeError("element count " + std::to_string(n) + " exceeds the " +
                      std::to_string(remaining()) + " bytes left");
  }
  return n;
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 70; shift += 7) {
    const Byte b = u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
  throw DecodeError("varint longer than 10 bytes");
}

void Reader::expect_done() const {
  if (!done()) {
    throw DecodeError("trailing bytes after decode: " + std::to_string(remaining()));
  }
}

std::span<const Byte> Reader::take(std::size_t n) {
  if (pos_ + n > in_.size()) {
    throw DecodeError("buffer underflow: need " + std::to_string(n) + ", have " +
                      std::to_string(in_.size() - pos_));
  }
  auto s = in_.subspan(pos_, n);
  pos_ += n;
  return s;
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

std::string to_string(std::span<const Byte> b) {
  std::string s;
  s.reserve(b.size());
  for (Byte c : b) {
    if (c >= 0x20 && c < 0x7f) {
      s.push_back(static_cast<char>(c));
    } else {
      s.push_back('\\');
      s.push_back('x');
      static constexpr char kHex[] = "0123456789abcdef";
      s.push_back(kHex[c >> 4]);
      s.push_back(kHex[c & 0xf]);
    }
  }
  return s;
}

std::string to_hex(std::span<const Byte> b) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s;
  s.reserve(b.size() * 2);
  for (Byte c : b) {
    s.push_back(kHex[c >> 4]);
    s.push_back(kHex[c & 0xf]);
  }
  return s;
}

}  // namespace msw
