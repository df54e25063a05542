// Deterministic random number generation.
//
// Every stochastic component of the simulator (latency sampling, mining,
// key generation in tests) draws from an explicitly-seeded Rng so whole
// experiments replay bit-for-bit. The generator is xoshiro256**.
#pragma once

#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace bcwan::util {

/// One stateless splitmix64 scramble: a full-avalanche 64-bit mix used to
/// derive independent RNG substreams and order-free trace digests.
std::uint64_t mix64(std::uint64_t x) noexcept;

class Rng {
 public:
  /// Seeds via splitmix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  std::uint64_t next() noexcept;

  /// Uniform in [0, bound). bound == 0 returns 0.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Standard normal via Box-Muller.
  double normal() noexcept;

  /// Lognormal with the given log-space mu / sigma.
  double lognormal(double mu, double sigma) noexcept;

  /// Exponential with the given mean (inter-arrival sampling).
  double exponential(double mean) noexcept;

  bool chance(double p) noexcept { return uniform() < p; }

  Bytes bytes(std::size_t n);
  /// Fills `out` with the byte stream bytes(out.size()) would return.
  void fill(std::span<std::uint8_t> out) noexcept;

  /// Derive an independent generator (stable given call order).
  Rng fork() noexcept { return Rng(next() ^ 0xa0761d6478bd642fULL); }

  /// Order-independent substream derivation: the returned generator's state
  /// is a pure function of (seed, stream), never of how many draws any other
  /// stream has made. This is what makes sharded-simulation sampling
  /// deterministic — per-entity and per-host-pair streams stay bit-identical
  /// no matter which thread samples first.
  static Rng substream(std::uint64_t seed, std::uint64_t stream) noexcept {
    return Rng(mix64(seed ^ mix64(stream ^ 0x6a09e667f3bcc909ULL)));
  }
  /// Two-dimensional substream (entity, per-entity nonce).
  static Rng substream(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t nonce) noexcept {
    return substream(seed, mix64(stream) ^ nonce * 0x9e3779b97f4a7c15ULL);
  }

 private:
  std::uint64_t s_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace bcwan::util
