#include "util/serial.hpp"

namespace bcwan::util {

void Writer::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void Writer::varint(std::uint64_t v) {
  if (v < 0xfd) {
    u8(static_cast<std::uint8_t>(v));
  } else if (v <= 0xffff) {
    u8(0xfd);
    u16(static_cast<std::uint16_t>(v));
  } else if (v <= 0xffffffffULL) {
    u8(0xfe);
    u32(static_cast<std::uint32_t>(v));
  } else {
    u8(0xff);
    u64(v);
  }
}

std::uint64_t Writer::var_bytes(ByteView b) {
  varint(b.size());
  const std::uint64_t at = position();
  bytes(b);
  return at;
}

void Reader::need(std::size_t n) const {
  if (remaining() < n) throw DeserializeError("truncated input");
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  const auto lo = u8();
  const auto hi = u8();
  return static_cast<std::uint16_t>(lo | hi << 8);
}

std::uint32_t Reader::u32() {
  const std::uint32_t lo = u16();
  const std::uint32_t hi = u16();
  return lo | hi << 16;
}

std::uint64_t Reader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | hi << 32;
}

std::uint64_t Reader::varint() {
  const auto tag = u8();
  if (tag < 0xfd) return tag;
  if (tag == 0xfd) {
    const auto v = u16();
    if (v < 0xfd) throw DeserializeError("non-canonical varint");
    return v;
  }
  if (tag == 0xfe) {
    const auto v = u32();
    if (v <= 0xffff) throw DeserializeError("non-canonical varint");
    return v;
  }
  const auto v = u64();
  if (v <= 0xffffffffULL) throw DeserializeError("non-canonical varint");
  return v;
}

Bytes Reader::bytes(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Bytes Reader::var_bytes() {
  const std::uint64_t n = varint();
  if (n > remaining()) throw DeserializeError("length prefix beyond input");
  return bytes(static_cast<std::size_t>(n));
}

ByteView Reader::view(std::size_t n) {
  need(n);
  const ByteView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

ByteView Reader::var_view() {
  const std::uint64_t n = varint();
  if (n > remaining()) throw DeserializeError("length prefix beyond input");
  return view(static_cast<std::size_t>(n));
}

void Reader::expect_done() const {
  if (!done()) throw DeserializeError("trailing bytes");
}

}  // namespace bcwan::util
