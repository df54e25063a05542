// Internal SHA-256 backend surface: the crypto module's compressors, plus
// the seam tests and benches use to reach compressors this CPU would not
// dispatch to.
//
// Each backend supplies the one-block-at-a-time streaming compressor and,
// optionally, a specialized sha256d64 (double-SHA-256 of independent 64-byte
// inputs — the merkle inner-node workload). sha256.cpp owns runtime
// detection and dispatch; the SIMD translation units are compiled with their
// target ISA enabled and must only be entered after the matching CPU feature
// check passed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bcwan::crypto {

/// Dispatched compressor name: "scalar", "shani" or "avx2".
const char* sha256_backend_name() noexcept;

/// Force a compressor ("scalar", "shani", "avx2", or "auto" to re-detect)
/// so differential tests and the hashing bench can cover every compressor
/// the CPU supports. Returns false (and leaves the dispatch unchanged) if
/// the name is unknown or the CPU lacks the feature. Not safe against
/// concurrent hashing. Production never calls it: detection picks
/// shani > avx2 > scalar once per process.
bool sha256_select_backend(std::string_view name) noexcept;

}  // namespace bcwan::crypto

namespace bcwan::crypto::detail {

/// Streaming compressor: absorb `blocks` consecutive 64-byte blocks into
/// `state` (8 words, FIPS 180-4 order a..h).
using TransformFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                             std::size_t nblocks);

/// Batched double-SHA-256: out[32*i .. 32*i+31] = SHA256(SHA256(in[64*i ..
/// 64*i+63])) for i in [0, n).
using Sha256D64Fn = void (*)(std::uint8_t* out, const std::uint8_t* in,
                             std::size_t n);

// Portable reference implementation (always available).
void transform_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                      std::size_t nblocks);

/// Generic sha256d64 built on any streaming compressor: both hashes of every
/// input are single fixed-size blocks, so padding is constant and the
/// byte-level Sha256 buffering machinery is skipped entirely.
void sha256d64_via(TransformFn transform, std::uint8_t* out,
                   const std::uint8_t* in, std::size_t n);

void sha256d64_scalar(std::uint8_t* out, const std::uint8_t* in,
                      std::size_t n);

#if defined(__x86_64__) || defined(__i386__)
// SHA-NI single-stream compressor (sha256_shani.cpp; requires SHA + SSE4.1).
bool shani_available();
void transform_shani(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t nblocks);
void sha256d64_shani(std::uint8_t* out, const std::uint8_t* in, std::size_t n);

// AVX2 8-way sha256d64 (sha256_avx2.cpp): eight independent 64-byte inputs
// ride one 32-bit lane each through a vectorized compressor.
bool avx2_available();
void sha256d64_avx2(std::uint8_t* out, const std::uint8_t* in, std::size_t n);
#endif

}  // namespace bcwan::crypto::detail
