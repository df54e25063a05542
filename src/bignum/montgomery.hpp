// Montgomery-form modular arithmetic — the validation fast path.
//
// Every fair-exchange settlement funnels through RSA-512 `mod_exp` (the
// OP_CHECKRSA512PAIR probes and signature checks) and secp256k1 field
// multiplications, all under a handful of fixed odd moduli; every gateway
// uplink mints a fresh RSA-512 pair whose Miller–Rabin rounds run here too.
// A MontgomeryCtx precomputes, once per modulus, everything needed to
// replace each multiply-then-Knuth-divide step with a single CIOS (coarsely
// integrated operand scanning) interleaved multiply-reduce over 64-bit
// limbs, with 128-bit intermediate products:
//
//   * n0' = -m[0]^-1 mod 2^64   (limb-wise Montgomery constant)
//   * R mod m and R^2 mod m     (domain conversion, R = 2^(64*limbs))
//
// The 4-limb width (RSA-512 primes, secp256k1 p and n) has its own
// straight-line kernel whose accumulator lives in five scalars and whose
// final conditional subtraction is selected by mask, not by branch; other
// widths run the loop form. `mod_exp` stays in the Montgomery domain
// throughout and slides windows of up to 5 bits over a table of odd powers,
// cutting each window from the exponent's limbs by shift and mask (short
// exponents such as e = 65537 take plain square-and-multiply);
// `mod_mul` is two CIOS passes (a*R^2 -> aR, then aR*b -> ab mod m).
// All scratch lives on the stack (moduli up to kMaxLimbs limbs), so an
// operation allocates only for its BigUint result.
//
// Contexts are memoized in a small thread-local MRU cache keyed on the
// modulus, so repeated verifies under the same RSA key — or the fixed
// secp256k1 p/n — skip precomputation entirely, with no locking on the
// parallel script-check workers. One-shot moduli (prime candidates during
// key generation) construct a context directly and never enter the cache.
// The classic square-and-multiply / schoolbook-division code remains in
// BigUint (`mod_exp_basic` / `mod_mul_basic`): the test oracle, and the
// production path for even moduli, for which Montgomery reduction is
// undefined, and for moduli of at most 32 bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "bignum/biguint.hpp"

namespace bcwan::bignum {

class MontgomeryCtx {
 public:
  /// Widest supported modulus, in 64-bit limbs (4096 bits).
  static constexpr std::size_t kMaxLimbs = 64;

  /// Throws std::domain_error unless `modulus` is odd, > 1 and at most
  /// 64 * kMaxLimbs bits wide.
  explicit MontgomeryCtx(const BigUint& modulus);

  const BigUint& modulus() const noexcept { return m_; }

  /// (a * b) mod m. Operands need not be reduced.
  BigUint mod_mul(const BigUint& a, const BigUint& b) const;

  /// (base ^ exp) mod m, sliding-windowed, constant Montgomery domain.
  BigUint mod_exp(const BigUint& base, const BigUint& exp) const;

  /// One Miller–Rabin round for the modulus n = d * 2^r + 1 (d odd, r >= 1)
  /// with witness `base` in [2, n-2]: true when n is a strong probable prime
  /// to that base. The exponentiation and all r-1 squarings stay in the
  /// Montgomery domain; comparisons against 1 and n-1 use their Montgomery
  /// images, so the verdict equals the textbook round's.
  bool strong_probable_prime(const BigUint& base, const BigUint& d,
                             std::size_t r) const;

  /// Memoized context for `modulus` from a bounded thread-local MRU cache.
  /// nullptr when the fast path does not apply: modulus even, zero, one,
  /// at most 32 bits, or wider than kMaxLimbs limbs.
  static std::shared_ptr<const MontgomeryCtx> cached(const BigUint& modulus);

 private:
  /// out = a * b * R^-1 mod m (CIOS; a straight-line kernel for 4 limbs,
  /// an unrolled instance for 8). All arrays hold n_ limbs, b < m; `out`
  /// may alias `a` or `b`.
  void mont_mul(const std::uint64_t* a, const std::uint64_t* b,
                std::uint64_t* out) const;
  /// acc = base_m ^ exp in the Montgomery domain (base_m = base * R mod m).
  /// `acc` may alias `base_m`.
  void exp_in_domain(const std::uint64_t* base_m, const BigUint& exp,
                     std::uint64_t* acc) const;
  /// Value (must be < 2^(64*n_)) -> n_ little-endian limbs.
  void pack(const BigUint& v, std::uint64_t* out) const;
  /// Like pack, reducing mod m first when v >= m.
  void load(const BigUint& v, std::uint64_t* out) const;
  BigUint store(const std::uint64_t* v) const;
  bool equal(const std::uint64_t* a, const std::uint64_t* b) const;

  const std::uint64_t* mod() const noexcept { return consts_.data(); }
  const std::uint64_t* r1() const noexcept { return consts_.data() + n_; }
  const std::uint64_t* r2() const noexcept { return consts_.data() + 2 * n_; }

  BigUint m_;
  std::size_t n_ = 0;  // limbs in use
  // m | R mod m (1 in Montgomery form) | R^2 mod m (to-Montgomery factor),
  // n_ little-endian limbs each: sized to the modulus, so the 64-entry
  // cache stays small.
  std::vector<std::uint64_t> consts_;
  std::uint64_t n0inv_ = 0;  // -m[0]^-1 mod 2^64
};

}  // namespace bcwan::bignum
