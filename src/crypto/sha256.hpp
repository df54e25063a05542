// SHA-256 (FIPS 180-4), implemented from the spec, with runtime-dispatched
// backends.
//
// Used for transaction/block ids (double SHA-256, Bitcoin convention),
// HASH160 addresses, HMAC and deterministic ECDSA nonces. The block
// compressor is selected once at startup from what the CPU offers — a SHA-NI
// single-stream compressor and an AVX2 8-way batched sha256d64 sit next to
// the portable scalar reference — and every backend is bit-identical
// (differential-tested in tests/hashing_test.cpp through the seam in
// sha256_impl.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace bcwan::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context. Copyable: a copy snapshots the midstate, so
/// a shared prefix can be absorbed once and resumed many times (the sighash
/// fast path in chain/transaction relies on this).
class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  Sha256& update(util::ByteView data) noexcept;
  Digest256 finalize() noexcept;

  /// Bytes absorbed so far (midstate bookkeeping).
  std::uint64_t total_len() const noexcept { return total_len_; }

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_len_ = 0;
  std::size_t buffer_len_ = 0;
};

/// One-shot SHA-256.
Digest256 sha256(util::ByteView data) noexcept;

/// Double SHA-256 (Bitcoin txid/block-hash convention).
Digest256 sha256d(util::ByteView data) noexcept;

/// Batched double SHA-256 over `n` independent 64-byte inputs:
/// out[32*i..] = SHA256d(in[64*i..64*i+63]). This is the merkle inner-node
/// shape; the AVX2 backend runs eight inputs per pass.
void sha256d64(std::uint8_t* out, const std::uint8_t* in, std::size_t n);

/// Digest as an owning byte buffer (for serialization call sites).
util::Bytes digest_bytes(const Digest256& d);

}  // namespace bcwan::crypto
