#include "bignum/biguint.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "bignum/montgomery.hpp"

namespace bcwan::bignum {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;
}

BigUint::BigUint(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32 != 0) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigUint::trim() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2 != 0) padded.insert(padded.begin(), '0');
  const auto bytes = util::from_hex(padded);
  if (!bytes) throw std::invalid_argument("BigUint::from_hex: malformed hex");
  return from_bytes_be(*bytes);
}

BigUint BigUint::from_bytes_be(util::ByteView bytes) {
  BigUint out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // bytes[i] is the (size-1-i)-th least significant byte.
    const std::size_t pos = bytes.size() - 1 - i;
    out.limbs_[pos / 4] |= static_cast<std::uint32_t>(bytes[i])
                           << (8 * (pos % 4));
  }
  out.trim();
  return out;
}

std::string BigUint::to_hex() const {
  if (is_zero()) return "0";
  const auto bytes = to_bytes_be();
  std::string hex = util::to_hex(bytes);
  const auto first = hex.find_first_not_of('0');
  return hex.substr(first == std::string::npos ? hex.size() - 1 : first);
}

util::Bytes BigUint::to_bytes_be(std::size_t min_width) const {
  const std::size_t bytes_needed = (bit_length() + 7) / 8;
  if (min_width != 0 && bytes_needed > min_width)
    throw std::domain_error("BigUint::to_bytes_be: value wider than min_width");
  const std::size_t width =
      std::max(min_width, std::max<std::size_t>(bytes_needed, 1));
  util::Bytes out(width, 0);
  for (std::size_t pos = 0; pos < bytes_needed; ++pos) {
    out[width - 1 - pos] = static_cast<std::uint8_t>(
        limbs_[pos / 4] >> (8 * (pos % 4)));
  }
  return out;
}

std::uint64_t BigUint::to_u64() const {
  if (limbs_.size() > 2) throw std::domain_error("BigUint::to_u64: overflow");
  std::uint64_t v = 0;
  if (limbs_.size() > 1) v = static_cast<std::uint64_t>(limbs_[1]) << 32;
  if (!limbs_.empty()) v |= limbs_[0];
  return v;
}

std::size_t BigUint::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  return 32 * (limbs_.size() - 1) +
         (32 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigUint::bit(std::size_t i) const noexcept {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1u;
}

int BigUint::compare(const BigUint& a, const BigUint& b) noexcept {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUint operator+(const BigUint& a, const BigUint& b) {
  BigUint out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<std::uint32_t>(carry);
  out.trim();
  return out;
}

BigUint operator-(const BigUint& a, const BigUint& b) {
  if (BigUint::compare(a, b) < 0)
    throw std::domain_error("BigUint: subtraction underflow");
  BigUint out;
  out.limbs_.resize(a.limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  out.trim();
  return out;
}

BigUint operator*(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return {};
  BigUint out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      const std::uint64_t cur =
          ai * b.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + b.limbs_.size()] = static_cast<std::uint32_t>(carry);
  }
  out.trim();
  return out;
}

BigUint BigUint::shl(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigUint BigUint::shr(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return {};
  const std::size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

std::pair<BigUint, BigUint> BigUint::divmod(const BigUint& a, const BigUint& b) {
  if (b.is_zero()) throw std::domain_error("BigUint: division by zero");
  if (compare(a, b) < 0) return {BigUint{}, a};

  // Fast path: single-limb divisor.
  if (b.limbs_.size() == 1) {
    const std::uint64_t d = b.limbs_[0];
    BigUint q;
    q.limbs_.assign(a.limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | a.limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {std::move(q), BigUint(rem)};
  }

  // Knuth Algorithm D (TAOCP vol. 2, 4.3.1), 32-bit limbs.
  const int shift = std::countl_zero(b.limbs_.back());
  const BigUint bn = b.shl(static_cast<std::size_t>(shift));
  const BigUint an = a.shl(static_cast<std::size_t>(shift));
  const std::size_t n = bn.limbs_.size();
  const std::size_t m = an.limbs_.size() - n;

  std::vector<std::uint32_t> un = an.limbs_;
  un.resize(m + n + 1, 0);
  const std::vector<std::uint32_t>& vn = bn.limbs_;

  BigUint q;
  q.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    const std::uint64_t num =
        (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    std::uint64_t qhat = num / vn[n - 1];
    std::uint64_t rhat = num % vn[n - 1];

    while (qhat >= kBase ||
           qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply and subtract: un[j..j+n] -= qhat * vn[0..n-1].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * vn[i] + carry;
      carry = p >> 32;
      const std::int64_t t = static_cast<std::int64_t>(un[i + j]) -
                             static_cast<std::int64_t>(p & 0xffffffffULL) -
                             borrow;
      un[i + j] = static_cast<std::uint32_t>(t);
      borrow = t < 0 ? 1 : 0;
    }
    const std::int64_t t = static_cast<std::int64_t>(un[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
    un[j + n] = static_cast<std::uint32_t>(t);
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);

    if (t < 0) {
      // qhat was one too large; add the divisor back.
      --q.limbs_[j];
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t s = static_cast<std::uint64_t>(un[i + j]) +
                                vn[i] + add_carry;
        un[i + j] = static_cast<std::uint32_t>(s);
        add_carry = s >> 32;
      }
      un[j + n] = static_cast<std::uint32_t>(un[j + n] + add_carry);
    }
  }

  BigUint r;
  r.limbs_.assign(un.begin(), un.begin() + static_cast<std::ptrdiff_t>(n));
  r.trim();
  r = r.shr(static_cast<std::size_t>(shift));
  q.trim();
  return {std::move(q), std::move(r)};
}

std::uint32_t BigUint::mod_u32(std::uint32_t d) const {
  if (d == 0) throw std::domain_error("BigUint: division by zero");
  std::uint64_t rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;)
    rem = ((rem << 32) | limbs_[i]) % d;
  return static_cast<std::uint32_t>(rem);
}

BigUint operator/(const BigUint& a, const BigUint& b) {
  return BigUint::divmod(a, b).first;
}

BigUint operator%(const BigUint& a, const BigUint& b) {
  return BigUint::divmod(a, b).second;
}

BigUint BigUint::mod_exp(const BigUint& base, const BigUint& exp,
                         const BigUint& m) {
  if (m.is_zero()) throw std::domain_error("BigUint: mod_exp modulus zero");
  if (const auto ctx = MontgomeryCtx::cached(m)) return ctx->mod_exp(base, exp);
  return mod_exp_basic(base, exp, m);
}

BigUint BigUint::mod_exp_basic(const BigUint& base, const BigUint& exp,
                               const BigUint& m) {
  if (m.is_zero()) throw std::domain_error("BigUint: mod_exp modulus zero");
  if (m.is_one()) return {};
  BigUint result(1);
  BigUint b = base % m;
  const std::size_t bits = exp.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    if (exp.bit(i)) result = (result * b) % m;
    b = (b * b) % m;
  }
  return result;
}

BigUint BigUint::mod_exp_crt(const BigUint& base, const BigUint& dp,
                             const BigUint& dq, const BigUint& p,
                             const BigUint& q, const BigUint& qinv) {
  if (p.is_zero() || q.is_zero())
    throw std::domain_error("BigUint: mod_exp_crt prime zero");
  // Half-width exponentiations: each routes through MontgomeryCtx::cached
  // for its own (odd) prime, so repeated operations under the same key
  // reuse both precomputed contexts.
  const BigUint m1 = mod_exp(base % p, dp, p);
  const BigUint m2 = mod_exp(base % q, dq, q);
  // Garner recombination: h = qinv * (m1 - m2) mod p; result = m2 + h*q.
  // m2 is reduced mod p first because q may exceed p.
  const BigUint h = mod_mul(mod_sub(m1, m2 % p, p), qinv % p, p);
  return m2 + h * q;
}

BigUint BigUint::mod_mul(const BigUint& a, const BigUint& b, const BigUint& m) {
  // The two-CIOS Montgomery product beats multiply-then-divide once the
  // modulus is wide enough to make Knuth division (and its allocations) the
  // dominant cost; below that the basic path wins.
  if (!m.is_even() && m.bit_length() >= 128) {
    if (const auto ctx = MontgomeryCtx::cached(m)) return ctx->mod_mul(a, b);
  }
  return mod_mul_basic(a, b, m);
}

BigUint BigUint::mod_mul_basic(const BigUint& a, const BigUint& b,
                               const BigUint& m) {
  return (a * b) % m;
}

BigUint BigUint::mod_add(const BigUint& a, const BigUint& b, const BigUint& m) {
  BigUint s = a + b;
  if (compare(s, m) >= 0) s = s - m;
  return s;
}

BigUint BigUint::mod_sub(const BigUint& a, const BigUint& b, const BigUint& m) {
  if (compare(a, b) >= 0) return a - b;
  return a + m - b;
}

std::optional<BigUint> BigUint::mod_inv(const BigUint& a, const BigUint& m) {
  if (m.is_zero()) throw std::domain_error("BigUint: mod_inv modulus zero");
  // Extended Euclid with explicit sign tracking for the Bezout coefficient.
  struct Signed {
    bool neg = false;
    BigUint mag;
  };
  auto sub = [](const Signed& x, const Signed& y) {
    // x - y on signed magnitudes.
    Signed out;
    if (x.neg == y.neg) {
      if (compare(x.mag, y.mag) >= 0) {
        out.neg = x.neg;
        out.mag = x.mag - y.mag;
      } else {
        out.neg = !x.neg;
        out.mag = y.mag - x.mag;
      }
    } else {
      out.neg = x.neg;
      out.mag = x.mag + y.mag;
    }
    if (out.mag.is_zero()) out.neg = false;
    return out;
  };

  BigUint r0 = m;
  BigUint r1 = a % m;
  Signed t0{false, BigUint{}};
  Signed t1{false, BigUint(1)};
  while (!r1.is_zero()) {
    auto [q, r2] = divmod(r0, r1);
    r0 = std::move(r1);
    r1 = std::move(r2);
    Signed qt1{t1.neg, q * t1.mag};
    Signed t2 = sub(t0, qt1);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (!r0.is_one()) return std::nullopt;  // not coprime
  BigUint inv = t0.mag % m;
  if (t0.neg && !inv.is_zero()) inv = m - inv;
  return inv;
}

namespace {

std::size_t trailing_zero_bits(const std::vector<std::uint32_t>& l) {
  std::size_t i = 0;
  while (l[i] == 0) ++i;
  return i * 32 + static_cast<std::size_t>(std::countr_zero(l[i]));
}

/// l >>= bits, in place; the caller trims.
void shr_in_place(std::vector<std::uint32_t>& l, std::size_t bits) {
  const std::size_t words = bits / 32;
  const unsigned rem = bits % 32;
  l.erase(l.begin(), l.begin() + static_cast<std::ptrdiff_t>(words));
  if (rem == 0) return;
  for (std::size_t i = 0; i + 1 < l.size(); ++i)
    l[i] = (l[i] >> rem) | (l[i + 1] << (32 - rem));
  l.back() >>= rem;
}

/// a -= b, in place, for a >= b; the caller trims.
void sub_in_place(std::vector<std::uint32_t>& a,
                  const std::vector<std::uint32_t>& b) {
  std::uint32_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t sub =
        static_cast<std::uint64_t>(i < b.size() ? b[i] : 0) + borrow;
    borrow = a[i] < sub ? 1 : 0;
    a[i] = static_cast<std::uint32_t>(a[i] - sub);
  }
}

}  // namespace

BigUint BigUint::gcd(BigUint a, BigUint b) {
  // Stein's binary GCD on the limb vectors in place: shifts and
  // subtractions only, no Knuth division per step.
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  const std::size_t za = trailing_zero_bits(a.limbs_);
  const std::size_t zb = trailing_zero_bits(b.limbs_);
  shr_in_place(a.limbs_, za);
  a.trim();
  shr_in_place(b.limbs_, zb);
  b.trim();
  for (;;) {  // both odd
    const int c = compare(a, b);
    if (c == 0) break;
    if (c < 0) std::swap(a, b);
    sub_in_place(a.limbs_, b.limbs_);  // even and nonzero
    a.trim();
    shr_in_place(a.limbs_, trailing_zero_bits(a.limbs_));
    a.trim();
  }
  return a << std::min(za, zb);
}

BigUint BigUint::random_bits(util::Rng& rng, std::size_t bits) {
  if (bits == 0) return {};
  const std::size_t nbytes = (bits + 7) / 8;
  util::Bytes raw = rng.bytes(nbytes);
  const std::size_t excess = nbytes * 8 - bits;
  raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
  return from_bytes_be(raw);
}

BigUint BigUint::random_below(util::Rng& rng, const BigUint& bound) {
  if (bound.is_zero())
    throw std::domain_error("BigUint: random_below zero bound");
  const std::size_t bits = bound.bit_length();
  for (;;) {
    BigUint candidate = random_bits(rng, bits);
    if (compare(candidate, bound) < 0) return candidate;
  }
}

}  // namespace bcwan::bignum
