// secp256k1 base-field arithmetic on 4x64-bit limbs, standard form.
//
// p = 2^256 - C with C = 0x1000003D1, so 2^256 == C (mod p): a 512-bit
// product hi * 2^256 + lo reduces to lo + hi * C, and because C is only 33
// bits wide a second fold of the (at most 34-bit) overflow word finishes
// the job. No Montgomery domain, no precomputed constants: elements are
// plain little-endian limbs, fully reduced to [0, p) after every operation,
// so equality is limb equality and zero is all-zero limbs.
//
// Inversion is Fermat's a^(p-2) over the libsecp256k1 addition chain
// (255 squarings, 15 multiplies), with no branches on the operand.
//
// Internal to the crypto library: secp256k1_fast.cpp builds the point
// arithmetic on it, and crypto_test checks every operation against BigUint
// mod p.
#pragma once

#include <cstdint>

namespace bcwan::crypto::field {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// 2^256 - p.
inline constexpr u64 kC = 0x1000003D1ULL;

/// p, little-endian limbs.
inline constexpr u64 kP[4] = {0xFFFFFFFEFFFFFC2FULL, ~0ULL, ~0ULL, ~0ULL};

struct Fe {
  u64 v[4];
};

inline bool fe_eq(const Fe& a, const Fe& b) {
  return ((a.v[0] ^ b.v[0]) | (a.v[1] ^ b.v[1]) | (a.v[2] ^ b.v[2]) |
          (a.v[3] ^ b.v[3])) == 0;
}

inline bool fe_is_zero(const Fe& a) {
  return (a.v[0] | a.v[1] | a.v[2] | a.v[3]) == 0;
}

/// out = r (+ 2^256 * carry) mod p for r < 2^256: adding C overflows
/// exactly when r >= p, and a carried-in 2^256 is worth C as well (the
/// callers guarantee the true value is below 2p).
inline void fe_finish(const u64 r[4], u64 carry, Fe& out) {
  u128 acc = static_cast<u128>(r[0]) + kC;
  u64 s[4];
  s[0] = static_cast<u64>(acc);
#pragma GCC unroll 4
  for (int i = 1; i < 4; ++i) {
    acc = static_cast<u128>(r[i]) + static_cast<u64>(acc >> 64);
    s[i] = static_cast<u64>(acc);
  }
  const u64 use_s = 0 - (carry | static_cast<u64>(acc >> 64));
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) out.v[i] = (s[i] & use_s) | (r[i] & ~use_s);
}

/// out = t mod p for a 512-bit t (little-endian limbs).
inline void fe_reduce_wide(const u64 t[8], Fe& out) {
  // Fold 1: r = lo + hi * C, a 256-bit value plus a top word below 2^34.
  u64 r[4];
  u128 acc = 0;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    acc += static_cast<u128>(t[4 + i]) * kC + t[i];
    r[i] = static_cast<u64>(acc);
    acc >>= 64;
  }
  // Fold 2: top * C (< 2^68) back into the low limbs. A carry out of limb 3
  // leaves r tiny, so fe_finish's single extra C cannot overflow again.
  acc = static_cast<u128>(static_cast<u64>(acc)) * kC + r[0];
  r[0] = static_cast<u64>(acc);
#pragma GCC unroll 4
  for (int i = 1; i < 4; ++i) {
    acc = static_cast<u128>(r[i]) + static_cast<u64>(acc >> 64);
    r[i] = static_cast<u64>(acc);
  }
  fe_finish(r, static_cast<u64>(acc >> 64), out);
}

inline void fe_mul(const Fe& a, const Fe& b, Fe& out) {
  u64 t[8] = {0};
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      const u128 cur =
          static_cast<u128>(a.v[i]) * b.v[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    t[i + 4] = carry;
  }
  fe_reduce_wide(t, out);
}

/// Dedicated square: the six cross products once, doubled, plus the four
/// diagonal squares (10 limb products instead of 16).
inline void fe_sqr(const Fe& a, Fe& out) {
  u64 t[8] = {0};
#pragma GCC unroll 4
  for (int i = 0; i < 3; ++i) {
    u64 carry = 0;
#pragma GCC unroll 4
    for (int j = i + 1; j < 4; ++j) {
      const u128 cur =
          static_cast<u128>(a.v[i]) * a.v[j] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    t[i + 4] = carry;
  }
  t[7] = t[6] >> 63;
#pragma GCC unroll 8
  for (int i = 6; i > 0; --i) t[i] = (t[i] << 1) | (t[i - 1] >> 63);
  t[0] <<= 1;
  u64 carry = 0;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    const u128 sq = static_cast<u128>(a.v[i]) * a.v[i];
    u128 cur = static_cast<u128>(t[2 * i]) + static_cast<u64>(sq) + carry;
    t[2 * i] = static_cast<u64>(cur);
    cur = static_cast<u128>(t[2 * i + 1]) + static_cast<u64>(sq >> 64) +
          static_cast<u64>(cur >> 64);
    t[2 * i + 1] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  fe_reduce_wide(t, out);
}

inline void fe_add(const Fe& a, const Fe& b, Fe& out) {
  u64 r[4];
  u128 acc = 0;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    acc += static_cast<u128>(a.v[i]) + b.v[i];
    r[i] = static_cast<u64>(acc);
    acc >>= 64;
  }
  fe_finish(r, static_cast<u64>(acc), out);
}

inline void fe_dbl(const Fe& a, Fe& out) { fe_add(a, a, out); }

/// a - b; on borrow the wrapped difference is a - b + 2^256, and adding p
/// instead means subtracting C (which cannot borrow again: the wrapped
/// value is at least 2^256 - p + 1 > C).
inline void fe_sub(const Fe& a, const Fe& b, Fe& out) {
  u64 r[4];
  u64 borrow = 0;
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(a.v[i]) - b.v[i] - borrow;
    r[i] = static_cast<u64>(cur);
    borrow = static_cast<u64>(cur >> 64) & 1;
  }
  u64 sub = kC & (0 - borrow);
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(r[i]) - sub;
    out.v[i] = static_cast<u64>(cur);
    sub = static_cast<u64>(cur >> 64) & 1;
  }
}

inline void fe_neg(const Fe& a, Fe& out) {
  const Fe zero{};
  fe_sub(zero, a, out);
}

/// a^(2^n) by repeated squaring.
inline void fe_sqr_n(const Fe& a, int n, Fe& out) {
  out = a;
  for (int i = 0; i < n; ++i) fe_sqr(out, out);
}

/// a^(p-2) = a^-1 for a != 0 (and 0 for a == 0). The exponent's binary
/// form is blocks of 1s of lengths 223, 22, 1, 2, 1; the chain builds
/// a^(2^k - 1) for k in {1, 2, 3, 6, 9, 11, 22, 44, 88, 176, 220, 223}.
inline void fe_inv(const Fe& a, Fe& out) {
  Fe x2, x3, x6, x9, x11, x22, x44, x88, x176, x220, x223, t;
  fe_sqr(a, x2);
  fe_mul(x2, a, x2);
  fe_sqr(x2, x3);
  fe_mul(x3, a, x3);
  fe_sqr_n(x3, 3, x6);
  fe_mul(x6, x3, x6);
  fe_sqr_n(x6, 3, x9);
  fe_mul(x9, x3, x9);
  fe_sqr_n(x9, 2, x11);
  fe_mul(x11, x2, x11);
  fe_sqr_n(x11, 11, x22);
  fe_mul(x22, x11, x22);
  fe_sqr_n(x22, 22, x44);
  fe_mul(x44, x22, x44);
  fe_sqr_n(x44, 44, x88);
  fe_mul(x88, x44, x88);
  fe_sqr_n(x88, 88, x176);
  fe_mul(x176, x88, x176);
  fe_sqr_n(x176, 44, x220);
  fe_mul(x220, x44, x220);
  fe_sqr_n(x220, 3, x223);
  fe_mul(x223, x3, x223);
  fe_sqr_n(x223, 23, t);
  fe_mul(t, x22, t);
  fe_sqr_n(t, 5, t);
  fe_mul(t, a, t);
  fe_sqr_n(t, 3, t);
  fe_mul(t, x2, t);
  fe_sqr_n(t, 2, t);
  fe_mul(t, a, out);
}

/// Big-endian 32 bytes -> limbs, no reduction (callers pass values < p).
inline Fe fe_from_be(const std::uint8_t* be) {
  Fe out;
  for (int i = 0; i < 4; ++i) {
    u64 limb = 0;
      for (int j = 0; j < 8; ++j) limb = limb << 8 | be[8 * (3 - i) + j];
    out.v[i] = limb;
  }
  return out;
}

inline void fe_to_be(const Fe& a, std::uint8_t* be) {
  for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 8; ++j)
      be[8 * (3 - i) + j] = static_cast<std::uint8_t>(a.v[i] >> (56 - 8 * j));
}

}  // namespace bcwan::crypto::field
