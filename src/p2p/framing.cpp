#include "p2p/framing.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/crc32c.hpp"
#include "util/serial.hpp"

namespace bcwan::p2p {

namespace {

std::uint16_t read_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

std::uint32_t read_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

util::Bytes encode_frame(const Message& msg, HostId from) {
  const std::string& type = msg.type.str();
  util::Writer w;
  w.u32(kFrameMagic);
  w.u16(kFrameVersion);
  w.u16(static_cast<std::uint16_t>(type.size()));
  w.u32(static_cast<std::uint32_t>(msg.payload.size()));
  w.u32(static_cast<std::uint32_t>(from));
  std::uint32_t crc = util::crc32c_extend(
      0, util::ByteView(reinterpret_cast<const std::uint8_t*>(type.data()),
                        type.size()));
  crc = util::crc32c_extend(crc, msg.payload);
  w.u32(crc);
  w.bytes(util::ByteView(reinterpret_cast<const std::uint8_t*>(type.data()),
                         type.size()));
  w.bytes(msg.payload);
  return w.take();
}

const char* frame_error_name(FrameError error) noexcept {
  switch (error) {
    case FrameError::kNone: return "none";
    case FrameError::kBadMagic: return "bad_magic";
    case FrameError::kBadVersion: return "bad_version";
    case FrameError::kOversized: return "oversized";
    case FrameError::kBadChecksum: return "bad_checksum";
  }
  return "unknown";
}

void FrameDecoder::feed(util::ByteView data) {
  if (poisoned()) return;  // connection is doomed; don't grow the buffer
  // Compact the consumed prefix before appending so the buffer never grows
  // past (one partial frame + this read).
  if (pos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<Message> FrameDecoder::next() {
  if (poisoned()) return std::nullopt;
  if (buf_.size() - pos_ < kFrameHeaderSize) return std::nullopt;
  const std::uint8_t* h = buf_.data() + pos_;
  if (read_u32(h) != kFrameMagic) {
    error_ = FrameError::kBadMagic;
    return std::nullopt;
  }
  if (read_u16(h + 4) != kFrameVersion) {
    error_ = FrameError::kBadVersion;
    return std::nullopt;
  }
  const std::size_t type_len = read_u16(h + 6);
  const std::size_t payload_len = read_u32(h + 8);
  if (type_len > kMaxFrameTypeLen || payload_len > kMaxFramePayload) {
    error_ = FrameError::kOversized;
    return std::nullopt;
  }
  const std::size_t body_len = type_len + payload_len;
  if (buf_.size() - pos_ < kFrameHeaderSize + body_len) return std::nullopt;
  const auto from = static_cast<HostId>(static_cast<std::int32_t>(
      read_u32(h + 12)));
  const std::uint32_t want_crc = read_u32(h + 16);
  const std::uint8_t* body = h + kFrameHeaderSize;
  if (util::crc32c(util::ByteView(body, body_len)) != want_crc) {
    error_ = FrameError::kBadChecksum;
    return std::nullopt;
  }
  Message msg;
  msg.type = std::string(reinterpret_cast<const char*>(body), type_len);
  msg.payload = util::Bytes(body + type_len, body + body_len);
  msg.from = from;
  pos_ += kFrameHeaderSize + body_len;
  return msg;
}

util::SimTime reconnect_backoff(unsigned attempt, util::Rng& rng,
                                util::SimTime base, util::SimTime cap) {
  util::SimTime delay = base;
  for (unsigned i = 0; i < attempt && delay < cap; ++i) delay *= 2;
  delay = std::min(delay, cap);
  const double jitter = 0.7 + 0.6 * rng.uniform();
  return std::max<util::SimTime>(1, static_cast<util::SimTime>(
                                        static_cast<double>(delay) * jitter));
}

}  // namespace bcwan::p2p
