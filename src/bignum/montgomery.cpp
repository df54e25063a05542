#include "bignum/montgomery.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>
#include <vector>

namespace bcwan::bignum {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using Limbs = std::array<u64, MontgomeryCtx::kMaxLimbs>;

/// Inverse of an odd 64-bit value mod 2^64 by Newton iteration: each step
/// doubles the number of correct low bits; five steps from the 3-bit seed
/// cover all 64.
u64 inv64(u64 odd) {
  u64 x = odd;  // correct to 3 bits for odd inputs
  for (int i = 0; i < 5; ++i) x *= 2 - odd * x;
  return x;
}

constexpr std::size_t kCtxCacheCap = 64;

}  // namespace

MontgomeryCtx::MontgomeryCtx(const BigUint& modulus) : m_(modulus) {
  if (m_.is_zero() || m_.is_one() || m_.is_even())
    throw std::domain_error("MontgomeryCtx: modulus must be odd and > 1");
  n_ = (m_.limbs_.size() + 1) / 2;
  if (n_ > kMaxLimbs)
    throw std::domain_error("MontgomeryCtx: modulus too wide");
  consts_.resize(3 * n_);
  pack(m_, consts_.data());
  n0inv_ = ~inv64(consts_[0]) + 1;  // -m[0]^-1 mod 2^64
  pack((BigUint(1) << (64 * n_)) % m_, consts_.data() + n_);
  pack((BigUint(1) << (128 * n_)) % m_, consts_.data() + 2 * n_);
}

void MontgomeryCtx::pack(const BigUint& v, u64* out) const {
  const std::vector<std::uint32_t>& l = v.limbs_;
  for (std::size_t i = 0; i < n_; ++i) {
    const u64 lo = 2 * i < l.size() ? l[2 * i] : 0;
    const u64 hi = 2 * i + 1 < l.size() ? l[2 * i + 1] : 0;
    out[i] = lo | hi << 32;
  }
}

void MontgomeryCtx::load(const BigUint& v, u64* out) const {
  if (BigUint::compare(v, m_) >= 0) {
    pack(v % m_, out);
  } else {
    pack(v, out);
  }
}

BigUint MontgomeryCtx::store(const u64* v) const {
  BigUint out;
  out.limbs_.resize(2 * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out.limbs_[2 * i] = static_cast<std::uint32_t>(v[i]);
    out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(v[i] >> 32);
  }
  out.trim();
  return out;
}

bool MontgomeryCtx::equal(const u64* a, const u64* b) const {
  for (std::size_t i = 0; i < n_; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

namespace {

/// out = a * b * R^-1 mod m over n limbs (CIOS, Koç/Acar/Kaliski):
/// interleave the a_i*b partial product with one Montgomery reduction step
/// per outer iteration; t holds n+2 limbs and stays < 2m at the end, so one
/// conditional subtract finishes. `out` may alias `a` or `b`. N > 0 fixes
/// the limb count at compile time so the inner loops unroll; N == 0 reads
/// it from `n_rt`.
template <std::size_t N>
void cios(const u64* a, const u64* b, u64* out, const u64* m, u64 n0inv,
          std::size_t n_rt) {
  const std::size_t n = N != 0 ? N : n_rt;
  u64 t[(N != 0 ? N : MontgomeryCtx::kMaxLimbs) + 2];
  for (std::size_t i = 0; i < n + 2; ++i) t[i] = 0;

  for (std::size_t i = 0; i < n; ++i) {
    const u64 ai = a[i];
    u64 carry = 0;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < n; ++j) {
      const u128 cur = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[n]) + carry;
    t[n] = static_cast<u64>(cur);
    t[n + 1] = static_cast<u64>(cur >> 64);

    const u64 mi = t[0] * n0inv;
    cur = static_cast<u128>(mi) * m[0] + t[0];
    carry = static_cast<u64>(cur >> 64);  // low limb is zero by choice of mi
#pragma GCC unroll 8
    for (std::size_t j = 1; j < n; ++j) {
      cur = static_cast<u128>(mi) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    cur = static_cast<u128>(t[n]) + carry;
    t[n - 1] = static_cast<u64>(cur);
    t[n] = t[n + 1] + static_cast<u64>(cur >> 64);
  }

  // t may be in [0, 2m): subtract m once if t >= m.
  bool ge = t[n] != 0;
  if (!ge) {
    ge = true;
    for (std::size_t i = n; i-- > 0;) {
      if (t[i] != m[i]) {
        ge = t[i] > m[i];
        break;
      }
    }
  }
  if (ge) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 diff = static_cast<u128>(t[i]) - m[i] - borrow;
      out[i] = static_cast<u64>(diff);
      borrow = static_cast<u64>(diff >> 64) & 1;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = t[i];
  }
}

/// acc = low word of x * y + acc + carry; returns the high word (the next
/// carry). The sum cannot overflow 128 bits.
inline u64 mac(u64& acc, u64 x, u64 y, u64 carry) {
  const u128 cur = static_cast<u128>(x) * y + acc + carry;
  acc = static_cast<u64>(cur);
  return static_cast<u64>(cur >> 64);
}

/// out = t mod m for t = t4:t3:t2:t1:t0 < 2m: compute t - m with its
/// borrow and keep t only where the subtraction borrowed, selected by mask
/// rather than by branch, so the extra reduction leaks no timing.
inline void reduce_once4(u64 t0, u64 t1, u64 t2, u64 t3, u64 t4,
                         const u64* m, u64* out) {
  u128 d = static_cast<u128>(t0) - m[0];
  const u64 s0 = static_cast<u64>(d);
  d = static_cast<u128>(t1) - m[1] - (static_cast<u64>(d >> 64) & 1);
  const u64 s1 = static_cast<u64>(d);
  d = static_cast<u128>(t2) - m[2] - (static_cast<u64>(d >> 64) & 1);
  const u64 s2 = static_cast<u64>(d);
  d = static_cast<u128>(t3) - m[3] - (static_cast<u64>(d >> 64) & 1);
  const u64 s3 = static_cast<u64>(d);
  d = static_cast<u128>(t4) - (static_cast<u64>(d >> 64) & 1);
  const u64 keep = 0 - (static_cast<u64>(d >> 64) & 1);  // all ones: t < m
  out[0] = (t0 & keep) | (s0 & ~keep);
  out[1] = (t1 & keep) | (s1 & ~keep);
  out[2] = (t2 & keep) | (s2 & ~keep);
  out[3] = (t3 & keep) | (s3 & ~keep);
}

/// The 4-limb CIOS (RSA-512 primes, secp256k1 p and n), straight-line:
/// operands and modulus are read once into locals and the accumulator
/// lives in five scalars, so no limb array is indexed in memory and the
/// compiler keeps the product in registers. Same contract as cios<N>:
/// b < m; out may alias a or b.
inline void mont_mul4(const u64* a, const u64* b, u64* out, const u64* m,
                      u64 n0inv) {
  const u64 b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3];
  const u64 m0 = m[0], m1 = m[1], m2 = m[2], m3 = m[3];
  const u64 av[4] = {a[0], a[1], a[2], a[3]};
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0;
  // One round per limb of a: t = (t + ai * b + q * m) / 2^64, q chosen so
  // the low limb of the sum is zero.
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    const u64 ai = av[i];
    u64 c = mac(t0, ai, b0, 0);
    c = mac(t1, ai, b1, c);
    c = mac(t2, ai, b2, c);
    c = mac(t3, ai, b3, c);
    const u128 top = static_cast<u128>(t4) + c;
    const u64 q = t0 * n0inv;
    c = mac(t0, q, m0, 0);
    c = mac(t1, q, m1, c);
    c = mac(t2, q, m2, c);
    c = mac(t3, q, m3, c);
    const u128 next = static_cast<u128>(static_cast<u64>(top)) + c;
    t0 = t1;
    t1 = t2;
    t2 = t3;
    t3 = static_cast<u64>(next);
    t4 = static_cast<u64>(top >> 64) + static_cast<u64>(next >> 64);
  }
  reduce_once4(t0, t1, t2, t3, t4, m, out);
}

/// Sliding-window width for an exponent of `bits` bits: the table of
/// 2^(w-1) odd powers costs 2^(w-1) products up front and saves about
/// bits / (w + 1) window products, so short exponents (e = 65537) take
/// plain square-and-multiply and 256-bit ones a 5-bit window.
constexpr std::size_t kMaxWindowBits = 5;
constexpr std::size_t window_bits(std::size_t bits) {
  return bits > 239 ? kMaxWindowBits : bits > 79 ? 4 : bits > 23 ? 3 : 1;
}

/// Bits [pos, pos + len) of an exponent's 32-bit limbs, len <= 32: one
/// shift and mask, whichever limbs the window straddles.
inline std::uint32_t bits_at(const std::vector<std::uint32_t>& e,
                             std::size_t pos, std::size_t len) {
  const std::size_t i = pos / 32;
  u64 v = e[i];
  if (i + 1 < e.size()) v |= static_cast<u64>(e[i + 1]) << 32;
  return static_cast<std::uint32_t>(v >> (pos % 32)) &
         static_cast<std::uint32_t>((u64{1} << len) - 1);
}

}  // namespace

void MontgomeryCtx::mont_mul(const u64* a, const u64* b, u64* out) const {
  // Fixed-width instances for the hot widths: RSA-512 primes and
  // secp256k1 (4 limbs), RSA-512 moduli and RSA-1024 primes (8 limbs).
  switch (n_) {
    case 4:
      return mont_mul4(a, b, out, mod(), n0inv_);
    case 8:
      return cios<8>(a, b, out, mod(), n0inv_, n_);
    default:
      return cios<0>(a, b, out, mod(), n0inv_, n_);
  }
}

BigUint MontgomeryCtx::mod_mul(const BigUint& a, const BigUint& b) const {
  Limbs av{}, bv{};
  load(a, av.data());
  load(b, bv.data());
  mont_mul(av.data(), r2(), av.data());  // aR = mont(a, R^2)
  mont_mul(av.data(), bv.data(), av.data());   // ab = mont(aR, b)
  return store(av.data());
}

void MontgomeryCtx::exp_in_domain(const u64* base_m, const BigUint& exp,
                                  u64* acc) const {
  const std::size_t n = n_;
  const std::size_t bits = exp.bit_length();
  if (bits == 0) {
    for (std::size_t i = 0; i < n; ++i) acc[i] = r1()[i];
    return;
  }
  // Left-to-right sliding windows over a table of odd powers, tab[k] =
  // base^(2k+1) * R. The table is left uninitialized: the entries the
  // window width uses are written before any is read, and zeroing the
  // whole array would cost every exponentiation.
  const std::size_t width = window_bits(bits);
  u64 tab[(std::size_t{1} << (kMaxWindowBits - 1)) * kMaxLimbs];
  for (std::size_t i = 0; i < n; ++i) tab[i] = base_m[i];
  if (width > 1) {
    u64 square[kMaxLimbs];
    mont_mul(base_m, base_m, square);
    for (std::size_t k = 1; k < std::size_t{1} << (width - 1); ++k)
      mont_mul(tab + (k - 1) * n, square, tab + k * n);
  }

  const std::vector<std::uint32_t>& e = exp.limbs_;
  bool started = false;
  for (std::size_t i = bits; i > 0;) {
    if (bits_at(e, i - 1, 1) == 0) {
      mont_mul(acc, acc, acc);  // the top bit is set, so acc is initialized
      --i;
      continue;
    }
    // The longest window of at most `width` bits ending in a set bit.
    std::size_t len = std::min(width, i);
    std::uint32_t win = bits_at(e, i - len, len);
    while ((win & 1) == 0) {
      win >>= 1;
      --len;
    }
    const u64* entry = tab + (win >> 1) * n;
    if (started) {
      for (std::size_t s = 0; s < len; ++s) mont_mul(acc, acc, acc);
      mont_mul(acc, entry, acc);
    } else {
      for (std::size_t j = 0; j < n; ++j) acc[j] = entry[j];
      started = true;
    }
    i -= len;
  }
}

BigUint MontgomeryCtx::mod_exp(const BigUint& base, const BigUint& exp) const {
  if (exp.is_zero()) return BigUint(1);  // m > 1, so 1 mod m == 1
  Limbs b{}, acc{};
  load(base, b.data());
  mont_mul(b.data(), r2(), b.data());  // to the Montgomery domain
  exp_in_domain(b.data(), exp, acc.data());
  // Leave the Montgomery domain: mont(acc, 1) = acc * R^-1.
  Limbs one{};
  one[0] = 1;
  mont_mul(acc.data(), one.data(), acc.data());
  return store(acc.data());
}

bool MontgomeryCtx::strong_probable_prime(const BigUint& base,
                                          const BigUint& d,
                                          std::size_t r) const {
  const std::size_t n = n_;
  // Montgomery images of 1 (R mod m) and of m - 1 (m - R mod m).
  Limbs minus_one{};
  u64 borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 diff = static_cast<u128>(mod()[i]) - r1()[i] - borrow;
    minus_one[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }

  Limbs x{};
  load(base, x.data());
  mont_mul(x.data(), r2(), x.data());
  exp_in_domain(x.data(), d, x.data());
  if (equal(x.data(), r1()) || equal(x.data(), minus_one.data()))
    return true;
  for (std::size_t i = 1; i < r; ++i) {
    mont_mul(x.data(), x.data(), x.data());
    if (equal(x.data(), minus_one.data())) return true;
  }
  return false;
}

std::shared_ptr<const MontgomeryCtx> MontgomeryCtx::cached(
    const BigUint& modulus) {
  // Single-limb moduli already hit BigUint's one-word division fast path;
  // even moduli have no Montgomery form.
  if (modulus.is_even() || modulus.bit_length() <= 32 ||
      modulus.bit_length() > 64 * kMaxLimbs) {
    return nullptr;
  }

  // Thread-local MRU list: no locking under the parallel check queue, and
  // the hottest moduli (secp256k1 p/n, the federation's RSA keys) stay at
  // the front where the scan is one compare.
  thread_local std::vector<std::shared_ptr<const MontgomeryCtx>> cache;
  for (auto it = cache.begin(); it != cache.end(); ++it) {
    if ((*it)->modulus() == modulus) {
      std::shared_ptr<const MontgomeryCtx> hit = *it;
      if (it != cache.begin()) {
        cache.erase(it);
        cache.insert(cache.begin(), hit);
      }
      return hit;
    }
  }
  auto ctx = std::make_shared<const MontgomeryCtx>(modulus);
  cache.insert(cache.begin(), ctx);
  if (cache.size() > kCtxCacheCap) cache.pop_back();
  return ctx;
}

}  // namespace bcwan::bignum
