// Serialization primitives: Writer/Reader round trips, bounds checking,
// and the printable/hex renderers.
#include <gtest/gtest.h>

#include "util/bytes.hpp"

namespace msw {
namespace {

TEST(Bytes, RoundTripFixedWidth) {
  Bytes buf;
  Writer w(buf);
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.boolean(true);
  w.boolean(false);

  Reader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.done());
}

TEST(Bytes, LittleEndianLayout) {
  Bytes buf;
  Writer w(buf);
  w.u32(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[1], 0x03);
  EXPECT_EQ(buf[2], 0x02);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(Bytes, LengthPrefixedBytes) {
  Bytes buf;
  Writer w(buf);
  const Bytes payload = to_bytes("hello world");
  w.bytes(payload);
  w.str("tail");

  Reader r(buf);
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_EQ(r.str(), "tail");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, EmptyByteString) {
  Bytes buf;
  Writer w(buf);
  w.bytes(Bytes{});
  Reader r(buf);
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.done());
}

TEST(Bytes, RawPassThrough) {
  Bytes buf;
  Writer w(buf);
  const Bytes raw = {1, 2, 3};
  w.raw(raw);
  Reader r(buf);
  auto got = r.raw(3);
  EXPECT_EQ(Bytes(got.begin(), got.end()), raw);
}

TEST(Bytes, UnderflowThrows) {
  Bytes buf;
  Writer w(buf);
  w.u16(7);
  Reader r(buf);
  EXPECT_THROW(r.u32(), DecodeError);
}

TEST(Bytes, TruncatedLengthPrefixThrows) {
  Bytes buf;
  Writer w(buf);
  w.u32(100);  // claims 100 bytes follow
  w.u8(1);
  Reader r(buf);
  EXPECT_THROW(r.bytes(), DecodeError);
}

TEST(Bytes, ExpectDoneThrowsOnTrailing) {
  Bytes buf;
  Writer w(buf);
  w.u8(1);
  w.u8(2);
  Reader r(buf);
  r.u8();
  EXPECT_THROW(r.expect_done(), DecodeError);
  r.u8();
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Bytes, RemainingCountsDown) {
  Bytes buf;
  Writer w(buf);
  w.u64(1);
  Reader r(buf);
  EXPECT_EQ(r.remaining(), 8u);
  r.u32();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Bytes, CountBoundedByRemainingBytes) {
  Bytes buf;
  Writer w(buf);
  w.u32(2);
  w.u64(7);
  w.u64(8);
  Reader ok(buf);
  EXPECT_EQ(ok.count(8), 2u);
  // Two 8-byte elements fit; claiming a third, or wider elements, does not.
  buf[0] = 3;
  Reader over(buf);
  EXPECT_THROW(over.count(8), DecodeError);
  buf[0] = 2;
  Reader wide(buf);
  EXPECT_THROW(wide.count(12), DecodeError);
  const Bytes huge = {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0};
  Reader r(huge);
  EXPECT_THROW(r.count(1), DecodeError);
}

TEST(Bytes, PrintableRendering) {
  const Bytes b = {'a', 'b', 0x01};
  EXPECT_EQ(to_string(std::span<const Byte>(b)), "ab\\x01");
  EXPECT_EQ(to_hex(std::span<const Byte>(b)), "616201");
}

TEST(Bytes, ToBytesRoundTrip) {
  EXPECT_EQ(to_string(std::span<const Byte>(to_bytes("xyz"))), "xyz");
}

}  // namespace
}  // namespace msw
