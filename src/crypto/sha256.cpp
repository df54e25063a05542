#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "crypto/sha256_impl.hpp"

namespace bcwan::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kIv = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

void write_be32(std::uint8_t* out, std::uint32_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}

/// A dispatch table entry: streaming compressor + batched double-SHA.
struct Backend {
  const char* name;
  detail::TransformFn transform;
  detail::Sha256D64Fn d64;
};

constexpr Backend kScalarBackend{"scalar", &detail::transform_scalar,
                                 &detail::sha256d64_scalar};

Backend detect_backend() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // SHA-NI wins for streams; for the batched d64 shape prefer SHA-NI too
  // (per-hash latency beats 8-way scalar-width throughput on every CPU that
  // has it), falling back to AVX2 8-way, then scalar.
  if (detail::shani_available()) {
    return Backend{"shani", &detail::transform_shani, &detail::sha256d64_shani};
  }
  if (detail::avx2_available()) {
    return Backend{"avx2", &detail::transform_scalar, &detail::sha256d64_avx2};
  }
#endif
  return kScalarBackend;
}

Backend select_by_name(std::string_view name, bool& ok) noexcept {
  ok = true;
  if (name == "auto") return detect_backend();
  if (name == "scalar") return kScalarBackend;
#if defined(__x86_64__) || defined(__i386__)
  if (name == "shani" && detail::shani_available()) {
    return Backend{"shani", &detail::transform_shani, &detail::sha256d64_shani};
  }
  if (name == "avx2" && detail::avx2_available()) {
    return Backend{"avx2", &detail::transform_scalar, &detail::sha256d64_avx2};
  }
#endif
  ok = false;
  return kScalarBackend;
}

/// Process-wide dispatch, detected once on first use.
Backend& active_backend() noexcept {
  static Backend backend = detect_backend();
  return backend;
}

}  // namespace

namespace detail {

void transform_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                      std::size_t nblocks) {
  for (std::size_t blk = 0; blk < nblocks; ++blk, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(blocks[4 * i]) << 24 |
             static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

void sha256d64_via(TransformFn transform, std::uint8_t* out,
                   const std::uint8_t* in, std::size_t n) {
  // Both hashes have fixed-size inputs, so both padding blocks are known at
  // compile time: the 64-byte message needs a full block of (0x80, ...,
  // len=512 bits) and the 32-byte digest re-hash fits one block with its
  // padding inline.
  static constexpr std::array<std::uint8_t, 64> kPad512 = [] {
    std::array<std::uint8_t, 64> p{};
    p[0] = 0x80;
    p[62] = 0x02;  // 512 = 0x0200 bits, big-endian in the last 8 bytes
    return p;
  }();

  for (std::size_t i = 0; i < n; ++i, in += 64, out += 32) {
    std::uint32_t state[8];
    std::memcpy(state, kIv.data(), sizeof state);
    transform(state, in, 1);
    transform(state, kPad512.data(), 1);

    std::uint8_t block2[64] = {};
    for (int w = 0; w < 8; ++w) write_be32(block2 + 4 * w, state[w]);
    block2[32] = 0x80;
    block2[62] = 0x01;  // 256 = 0x0100 bits

    std::memcpy(state, kIv.data(), sizeof state);
    transform(state, block2, 1);
    for (int w = 0; w < 8; ++w) write_be32(out + 4 * w, state[w]);
  }
}

void sha256d64_scalar(std::uint8_t* out, const std::uint8_t* in,
                      std::size_t n) {
  sha256d64_via(&transform_scalar, out, in, n);
}

#if defined(__x86_64__) || defined(__i386__)
void sha256d64_shani(std::uint8_t* out, const std::uint8_t* in,
                     std::size_t n) {
  sha256d64_via(&transform_shani, out, in, n);
}
#endif

}  // namespace detail

void Sha256::reset() noexcept {
  state_ = kIv;
  total_len_ = 0;
  buffer_len_ = 0;
}

Sha256& Sha256::update(util::ByteView data) noexcept {
  const detail::TransformFn transform = active_backend().transform;
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ != 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      transform(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (offset + 64 <= data.size()) {
    const std::size_t nblocks = (data.size() - offset) / 64;
    transform(state_.data(), data.data() + offset, nblocks);
    offset += nblocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

Digest256 Sha256::finalize() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  const std::uint8_t pad_byte = 0x80;
  update(util::ByteView(&pad_byte, 1));
  const std::uint8_t zero = 0x00;
  while (buffer_len_ != 56) update(util::ByteView(&zero, 1));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i)
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  update(util::ByteView(len_bytes, 8));

  Digest256 out;
  for (int i = 0; i < 8; ++i) write_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Digest256 sha256(util::ByteView data) noexcept {
  return Sha256().update(data).finalize();
}

Digest256 sha256d(util::ByteView data) noexcept {
  const Digest256 first = sha256(data);
  return sha256(util::ByteView(first.data(), first.size()));
}

void sha256d64(std::uint8_t* out, const std::uint8_t* in, std::size_t n) {
  active_backend().d64(out, in, n);
}

const char* sha256_backend_name() noexcept { return active_backend().name; }

bool sha256_select_backend(std::string_view name) noexcept {
  bool ok = false;
  const Backend chosen = select_by_name(name, ok);
  if (ok) active_backend() = chosen;
  return ok;
}

util::Bytes digest_bytes(const Digest256& d) {
  return util::Bytes(d.begin(), d.end());
}

}  // namespace bcwan::crypto
