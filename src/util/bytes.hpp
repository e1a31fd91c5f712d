// Byte-buffer primitives and forward-only serialization.
//
// All wire formats in this library are built from the little-endian
// fixed-width encoders below. Headers are appended to the *tail* of a
// message buffer on the way down a protocol stack and popped from the tail
// on the way up (see stack/message.hpp), so both Writer and Reader here are
// simple forward cursors over a contiguous byte range.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace msw {

using Byte = std::uint8_t;
using Bytes = std::vector<Byte>;

/// Thrown when a Reader runs past the end of its buffer or a length prefix
/// is inconsistent. Protocol layers treat this as a malformed packet.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends fixed-width little-endian values to a Bytes buffer.
class Writer {
 public:
  explicit Writer(Bytes& out) : out_(out) {}

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// LEB128 variable-width unsigned integer: 1 byte for values < 128,
  /// growing 7 bits per byte (max 10 bytes). The control-plane encodings
  /// (range NACKs, delta ack vectors) are built on this.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out_.push_back(static_cast<Byte>(v) | 0x80);
      v >>= 7;
    }
    out_.push_back(static_cast<Byte>(v));
  }

  /// Raw bytes, no length prefix. The caller must know the length on read.
  void raw(std::span<const Byte> b) { out_.insert(out_.end(), b.begin(), b.end()); }

  /// Length-prefixed (u32) byte string.
  void bytes(std::span<const Byte> b);

  /// Length-prefixed (u32) character string.
  void str(std::string_view s);

  /// Pre-size the buffer for `n` more bytes; a header of known width pays
  /// one capacity check instead of one per field.
  void reserve(std::size_t n) { out_.reserve(out_.size() + n); }

  /// Number of bytes written through this Writer so far is not tracked;
  /// callers needing sizes should snapshot out().size().
  const Bytes& out() const { return out_; }

 private:
  template <typename T>
  void put_le(T v) {
    // Single resize + direct stores: the little-endian byte spread compiles
    // to one unaligned store, vs. sizeof(T) push_back capacity checks.
    const std::size_t n = out_.size();
    out_.resize(n + sizeof(T));
    Byte* p = out_.data() + n;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<Byte>((v >> (8 * i)) & 0xff);
    }
  }

  Bytes& out_;
};

/// Forward cursor over a byte range. Throws DecodeError on underflow.
class Reader {
 public:
  explicit Reader(std::span<const Byte> in) : in_(in) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(get_le<std::uint64_t>()); }
  bool boolean() { return u8() != 0; }

  /// LEB128 varint. Throws DecodeError on underflow or an encoding longer
  /// than 10 bytes (a u64 never needs more).
  std::uint64_t varint();

  /// Raw bytes of known length.
  std::span<const Byte> raw(std::size_t n) { return take(n); }

  /// A u32 element count taken from the wire, checked against the bytes
  /// left: each element occupies at least `min_elem_bytes` (> 0), so a
  /// count the rest of the frame cannot hold throws DecodeError. Decoders
  /// read every untrusted count through this before reserving storage for
  /// it, so a malformed frame is a drop rather than a giant allocation.
  std::uint32_t count(std::size_t min_elem_bytes);

  /// Length-prefixed (u32) byte string, copied out.
  Bytes bytes();

  /// Length-prefixed (u32) character string.
  std::string str();

  std::size_t remaining() const { return in_.size() - pos_; }
  bool done() const { return remaining() == 0; }

  /// Asserts the buffer is fully consumed; protocol layers call this after
  /// decoding a header to catch format drift early.
  void expect_done() const;

 private:
  std::span<const Byte> take(std::size_t n);

  template <typename T>
  T get_le() {
    auto b = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(b[i]) << (8 * i));
    }
    return v;
  }

  std::span<const Byte> in_;
  std::size_t pos_ = 0;
};

/// Convenience: build a Bytes from a string literal / string_view body.
Bytes to_bytes(std::string_view s);

/// Convenience: render bytes as printable text (non-printables escaped).
std::string to_string(std::span<const Byte> b);

/// Hex dump, for diagnostics.
std::string to_hex(std::span<const Byte> b);

}  // namespace msw
