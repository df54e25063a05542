// Probabilistic primality testing and random prime generation.
//
// Used by crypto::rsa to generate the 256-bit prime factors of RSA-512
// moduli (and larger moduli for the key-size ablation). Miller-Rabin with
// random bases, run in the Montgomery domain of a per-candidate
// MontgomeryCtx; candidates are pre-filtered by trial division against the
// primes below 1000, one word division per group of primes.
#pragma once

#include <cstddef>

#include "bignum/biguint.hpp"
#include "util/rng.hpp"

namespace bcwan::bignum {

/// Miller-Rabin rounds of generate_prime and the is_probable_prime default.
inline constexpr std::size_t kMillerRabinRounds = 24;

/// Miller-Rabin with `rounds` random bases (error probability <= 4^-rounds).
/// Exact for inputs below 1009^2 via trial division. Throws std::domain_error
/// for n wider than 4096 bits (MontgomeryCtx::kMaxLimbs).
bool is_probable_prime(const BigUint& n, util::Rng& rng,
                       std::size_t rounds = kMillerRabinRounds);

/// Random prime with exactly `bits` bits (top two bits set so that products
/// of two such primes have exactly 2*bits bits, as RSA keygen requires).
/// Candidates are drawn and trial-divided without allocating. Throws
/// std::invalid_argument unless 8 <= bits <= 4096.
BigUint generate_prime(util::Rng& rng, std::size_t bits);

/// Random safe-ish RSA prime p with gcd(p-1, e) == 1.
BigUint generate_rsa_prime(util::Rng& rng, std::size_t bits,
                           const BigUint& public_exponent);

}  // namespace bcwan::bignum
