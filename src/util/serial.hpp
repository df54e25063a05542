// Canonical binary serialization used by transactions, blocks and frames.
//
// Integers are little-endian (Bitcoin convention); variable-length sizes use
// Bitcoin's CompactSize ("varint") encoding so serialized transactions look
// like the real thing on the wire.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/bytes.hpp"

namespace bcwan::util {

/// Thrown by Reader when the input is truncated or malformed.
class DeserializeError : public std::runtime_error {
 public:
  explicit DeserializeError(const std::string& what)
      : std::runtime_error("deserialize: " + what) {}
};

/// Encoded size of Writer::varint(v).
constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  return v < 0xfd ? 1 : v <= 0xffff ? 3 : v <= 0xffffffffULL ? 5 : 9;
}

/// Append-only binary writer.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Bitcoin CompactSize.
  void varint(std::uint64_t v);
  void bytes(ByteView b) {
    // The explicit capacity check keeps GCC-12's -Wstringop-overflow quiet
    // on the inlined insert path. Grow geometrically when we do grow: an
    // exact-size reserve() would pin capacity == size and turn a run of
    // appends quadratic, since reserve never over-allocates.
    const std::size_t need = out_.size() + b.size();
    if (need > out_.capacity())
      out_.reserve(std::max(need, out_.size() + out_.size() / 2));
    out_.insert(out_.end(), b.begin(), b.end());
  }
  /// varint length prefix + raw bytes; returns the position() the raw
  /// bytes landed at.
  std::uint64_t var_bytes(ByteView b);

  const Bytes& data() const noexcept { return out_; }
  Bytes take() noexcept { return std::move(out_); }
  /// Bytes written so far, drained ones included: the offset the next
  /// write lands at within the whole encoding.
  std::uint64_t position() const noexcept { return drained_ + out_.size(); }

  /// Stream the encoding out in pieces: from now on every boundary() call
  /// with at least `chunk` bytes buffered hands them to `drain` and empties
  /// the buffer, and flush() hands over the rest. An encoder that calls
  /// boundary() between records writes a large payload (a chainstate
  /// snapshot) in bounded memory, byte-identical to its buffered encoding.
  void drain_to(std::function<void(ByteView)> drain, std::size_t chunk) {
    drain_ = std::move(drain);
    drain_at_ = chunk;
  }
  /// Record boundary: drains when streaming and the buffer is full enough.
  void boundary() {
    if (drain_ && out_.size() >= drain_at_) flush();
  }
  /// Drain whatever is buffered (no-op without drain_to).
  void flush() {
    if (!drain_ || out_.empty()) return;
    drain_(out_);
    drained_ += out_.size();
    out_.clear();
  }

 private:
  Bytes out_;
  std::function<void(ByteView)> drain_;
  std::size_t drain_at_ = 0;
  std::uint64_t drained_ = 0;
};

/// Bounds-checked binary reader over a borrowed buffer.
class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  Bytes bytes(std::size_t n);
  Bytes var_bytes();
  /// Zero-copy variants: a view into the underlying buffer, valid only as
  /// long as the buffer the Reader borrows. The hot replay path decodes
  /// thousands of length-prefixed blobs per millisecond; copying each one
  /// into a fresh Bytes dominated the profile.
  ByteView view(std::size_t n);
  ByteView var_view();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return remaining() == 0; }
  /// Require that the whole buffer was consumed (canonical encodings).
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace bcwan::util
