#include "crypto/rsa.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bignum/montgomery.hpp"
#include "bignum/primes.hpp"
#include "crypto/sha256.hpp"
#include "util/serial.hpp"

namespace bcwan::crypto {

using bignum::BigUint;
using bignum::MontgomeryCtx;

namespace {

util::Bytes serialize_ints(std::initializer_list<const BigUint*> values) {
  util::Writer w;
  for (const BigUint* v : values) w.var_bytes(v->to_bytes_be());
  return w.take();
}

// One cached-context lookup per RSA operation: repeated verifies under the
// same key (every OP_CHECKRSA512PAIR probe, every uplink signature) reuse
// the per-modulus Montgomery precomputation. RSA moduli are odd by
// construction, but deserialized keys are attacker-supplied, so an even
// modulus falls back to the reference path instead of asserting.
BigUint pow_mod(const std::shared_ptr<const MontgomeryCtx>& ctx,
                const BigUint& base, const BigUint& exp, const BigUint& m) {
  if (ctx) return ctx->mod_exp(base, exp);
  return BigUint::mod_exp_basic(base, exp, m);
}

std::atomic<std::uint64_t> g_crt_faults{0};

// Computes dp/dq/qinv from a claimed factorization (p, q) of key.n and
// installs all five CRT fields. Rejects (leaving the key untouched) unless
// p*q really is n and qinv * q == 1 (mod p) — defensive, since recovery
// feeds this gcd outputs from attacker-supplied key material. qinv is
// Fermat's q^(p-2) mod p, one half-width exponentiation (about half the
// cost of extended Euclid over Knuth division) on a one-shot context, so
// keygen leaves the context cache alone; a composite p fails the check,
// and the key then keeps the full-width path.
bool fill_crt_fields(RsaPrivateKey& key, BigUint p, BigUint q) {
  if (p.is_zero() || q.is_zero() || p.is_one() || q.is_one()) return false;
  if (p.is_even() || !(p * q == key.n)) return false;
  const BigUint q_mod_p = q % p;
  BigUint qinv = MontgomeryCtx(p).mod_exp(q_mod_p, p - BigUint(2));
  if (!BigUint::mod_mul(qinv, q_mod_p, p).is_one()) return false;
  key.dp = key.d % (p - BigUint(1));
  key.dq = key.d % (q - BigUint(1));
  key.qinv = std::move(qinv);
  key.p = std::move(p);
  key.q = std::move(q);
  return true;
}

// floor(sqrt(a)) by Newton's iteration from above.
BigUint isqrt(const BigUint& a) {
  if (a.is_zero()) return a;
  BigUint x = BigUint(1) << ((a.bit_length() + 1) / 2);
  for (;;) {
    BigUint y = (x + a / x) >> 1;
    if (BigUint::compare(y, x) >= 0) return x;
    x = std::move(y);
  }
}

// The deterministic split for d = e^-1 mod phi(n), which is how
// rsa_generate picks d: e*d - 1 = k * phi(n) with k < e, and
// phi(n) = n - (p + q) + 1 sits just below n, so k = floor((e*d - 1)/n) + 1
// (whenever k * (p + q - 1) < n, true for any real modulus). Then p and q
// are the roots of x^2 - (p + q) x + n. A few divisions and one integer
// square root, against the exponentiations of the square-root walk. False
// when (n, e, d) is not of that form (d taken mod lambda(n), or
// inconsistent material); fill_crt_fields validates any split found.
bool split_from_phi(RsaPrivateKey& key) {
  const BigUint& n = key.n;
  const BigUint ed1 = key.e * key.d - BigUint(1);
  const BigUint k = ed1 / n + BigUint(1);
  const auto [phi, rest] = BigUint::divmod(ed1, k);
  if (!rest.is_zero() || BigUint::compare(phi, n) >= 0) return false;
  const BigUint sum = n - phi + BigUint(1);  // p + q
  const BigUint sum_sq = sum * sum;
  const BigUint four_n = n << 2;
  if (BigUint::compare(sum_sq, four_n) <= 0) return false;
  const BigUint diff_sq = sum_sq - four_n;  // (p - q)^2
  const BigUint diff = isqrt(diff_sq);
  if (!(diff * diff == diff_sq)) return false;
  return fill_crt_fields(key, (sum + diff) >> 1, (sum - diff) >> 1);
}

struct CrtParams {
  BigUint p, q, dp, dq, qinv;
};

// Thread-local MRU cache of CRT recoveries keyed on (n, d): deserialized
// keys (on-chain reveals, gateway decrypt keys) carry no CRT fields, and
// factoring n costs a few full-width exponentiations — worth paying once
// per key per thread, not once per operation. Failed recoveries are cached
// too so inconsistent attacker keys don't re-run the factoring loop.
// Mirrors the MontgomeryCtx::cached MRU discipline, but sized for a block
// of reveals: every redeem in a block carries a distinct ephemeral key, and
// a capacity below the per-block reveal count would thrash — refactoring n
// on every operation costs more than CRT saves. ~128 entries of five
// half-width values each is a few hundred KB per verification thread.
const CrtParams* cached_crt(const RsaPrivateKey& key) {
  struct Entry {
    BigUint n, d;
    CrtParams params;
    bool ok = false;
  };
  constexpr std::size_t kCapacity = 128;
  thread_local std::vector<Entry> cache;
  for (std::size_t i = 0; i < cache.size(); ++i) {
    if (cache[i].n == key.n && cache[i].d == key.d) {
      if (i != 0)
        std::rotate(cache.begin(), cache.begin() + static_cast<std::ptrdiff_t>(i),
                    cache.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      return cache.front().ok ? &cache.front().params : nullptr;
    }
  }
  RsaPrivateKey probe = key;
  Entry entry;
  entry.n = key.n;
  entry.d = key.d;
  entry.ok = rsa_crt_recover(probe);
  if (entry.ok)
    entry.params = {std::move(probe.p), std::move(probe.q), std::move(probe.dp),
                    std::move(probe.dq), std::move(probe.qinv)};
  cache.insert(cache.begin(), std::move(entry));
  if (cache.size() > kCapacity) cache.pop_back();
  return cache.front().ok ? &cache.front().params : nullptr;
}

// x^d mod n through the CRT halves, with the public-exponent re-check that
// makes the fast path result-equivalent to the reference one: y is accepted
// only if y^e == x (mod n), otherwise we count the fault and recompute with
// the full-width exponent. Precondition (all callers enforce): x < n.
BigUint crt_exp_checked(const RsaPrivateKey& priv, const BigUint& x,
                        const BigUint& p, const BigUint& q, const BigUint& dp,
                        const BigUint& dq, const BigUint& qinv) {
  BigUint y;
  bool computed = false;
  try {
    y = BigUint::mod_exp_crt(x, dp, dq, p, q, qinv);
    computed = true;
  } catch (const std::domain_error&) {
    // Degenerate CRT material (zero prime); fall through to the re-check
    // failure path below.
  }
  const auto ctx = MontgomeryCtx::cached(priv.n);
  if (computed && BigUint::compare(y, priv.n) < 0 &&
      pow_mod(ctx, y, priv.e, priv.n) == x)
    return y;
  g_crt_faults.fetch_add(1, std::memory_order_relaxed);
  return pow_mod(ctx, x, priv.d, priv.n);
}

// Are the key-carried CRT fields actually derived from (n, d)? Stale or
// tampered fields would otherwise exponentiate with the *old* d and still
// pass the public-exponent re-check (the result is a valid e-th root either
// way), silently overriding the authoritative d. A handful of divisions and
// one mod_mul — noise next to the exponentiation they guard.
bool crt_consistent(const RsaPrivateKey& priv) {
  if (priv.q.is_zero() || priv.p.is_one() || priv.q.is_one()) return false;
  if (!(priv.p * priv.q == priv.n)) return false;
  if (!(priv.dp == priv.d % (priv.p - BigUint(1)))) return false;
  if (!(priv.dq == priv.d % (priv.q - BigUint(1)))) return false;
  return BigUint::mod_mul(priv.qinv, priv.q % priv.p, priv.p).is_one();
}

// The single private-key entry point: CRT when available (either carried on
// the key from rsa_generate or recovered+cached for wire keys), full-width
// exponent otherwise. Precondition: x < priv.n.
BigUint rsa_priv_exp(const RsaPrivateKey& priv, const BigUint& x) {
  if (priv.has_crt()) {
    if (crt_consistent(priv))
      return crt_exp_checked(priv, x, priv.p, priv.q, priv.dp, priv.dq,
                             priv.qinv);
    // Sabotaged/stale CRT material: count it and use the full-width
    // exponent, which needs only (n, d).
    g_crt_faults.fetch_add(1, std::memory_order_relaxed);
  } else if (const CrtParams* crt = cached_crt(priv)) {
    // Recovery output was validated by fill_crt_fields against this very
    // (n, d); no recheck needed.
    return crt_exp_checked(priv, x, crt->p, crt->q, crt->dp, crt->dq,
                           crt->qinv);
  }
  return pow_mod(MontgomeryCtx::cached(priv.n), x, priv.d, priv.n);
}

}  // namespace

util::Bytes RsaPublicKey::serialize() const { return serialize_ints({&n, &e}); }

std::optional<RsaPublicKey> RsaPublicKey::deserialize(util::ByteView data) {
  try {
    util::Reader r(data);
    RsaPublicKey key;
    key.n = BigUint::from_bytes_be(r.var_bytes());
    key.e = BigUint::from_bytes_be(r.var_bytes());
    r.expect_done();
    if (key.n.is_zero() || key.e.is_zero()) return std::nullopt;
    return key;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

util::Bytes RsaPrivateKey::serialize() const {
  return serialize_ints({&n, &e, &d});
}

std::optional<RsaPrivateKey> RsaPrivateKey::deserialize(util::ByteView data) {
  try {
    util::Reader r(data);
    RsaPrivateKey key;
    key.n = BigUint::from_bytes_be(r.var_bytes());
    key.e = BigUint::from_bytes_be(r.var_bytes());
    key.d = BigUint::from_bytes_be(r.var_bytes());
    r.expect_done();
    if (key.n.is_zero() || key.d.is_zero()) return std::nullopt;
    return key;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

RsaKeyPair rsa_generate(util::Rng& rng, std::size_t modulus_bits) {
  if (modulus_bits < 128 || modulus_bits % 16 != 0)
    throw std::invalid_argument("rsa_generate: bad modulus size");
  const BigUint e(65537);
  for (;;) {
    const BigUint p = bignum::generate_rsa_prime(rng, modulus_bits / 2, e);
    const BigUint q = bignum::generate_rsa_prime(rng, modulus_bits / 2, e);
    if (p == q) continue;
    const BigUint n = p * q;
    if (n.bit_length() != modulus_bits) continue;
    const BigUint phi = (p - BigUint(1)) * (q - BigUint(1));
    const auto d = BigUint::mod_inv(e, phi);
    if (!d) continue;
    RsaKeyPair pair;
    pair.pub = {n, e};
    pair.priv.n = n;
    pair.priv.e = e;
    pair.priv.d = *d;
    // The primes are in hand at generation time, so CRT comes for free; it
    // cannot fail here (distinct odd primes), but a failure would only cost
    // the speedup, not correctness.
    fill_crt_fields(pair.priv, p, q);
    return pair;
  }
}

util::Bytes rsa_encrypt(const RsaPublicKey& pub, util::ByteView plaintext,
                        util::Rng& rng) {
  const std::size_t k = pub.modulus_bytes();
  if (plaintext.size() + 11 > k)
    throw std::invalid_argument("rsa_encrypt: plaintext too long for modulus");
  // EB = 00 || 02 || PS (nonzero random) || 00 || M
  util::Bytes eb;
  eb.reserve(k);
  eb.push_back(0x00);
  eb.push_back(0x02);
  const std::size_t ps_len = k - 3 - plaintext.size();
  for (std::size_t i = 0; i < ps_len; ++i) {
    std::uint8_t b = 0;
    while (b == 0) b = static_cast<std::uint8_t>(rng.next());
    eb.push_back(b);
  }
  eb.push_back(0x00);
  eb.insert(eb.end(), plaintext.begin(), plaintext.end());

  const BigUint m = BigUint::from_bytes_be(eb);
  const BigUint c = pow_mod(MontgomeryCtx::cached(pub.n), m, pub.e, pub.n);
  return c.to_bytes_be(k);
}

std::optional<util::Bytes> rsa_decrypt(const RsaPrivateKey& priv,
                                       util::ByteView ciphertext) {
  const std::size_t k = priv.modulus_bytes();
  if (ciphertext.size() != k) return std::nullopt;
  const BigUint c = BigUint::from_bytes_be(ciphertext);
  if (BigUint::compare(c, priv.n) >= 0) return std::nullopt;
  const BigUint m = rsa_priv_exp(priv, c);
  const util::Bytes eb = m.to_bytes_be(k);
  if (eb[0] != 0x00 || eb[1] != 0x02) return std::nullopt;
  std::size_t sep = 2;
  while (sep < k && eb[sep] != 0x00) ++sep;
  if (sep < 10 || sep == k) return std::nullopt;  // PS must be >= 8 bytes
  return util::Bytes(eb.begin() + static_cast<std::ptrdiff_t>(sep) + 1,
                     eb.end());
}

namespace {

// EB = 00 || 01 || FF..FF || 00 || SHA-256(message)
util::Bytes signature_encoding(std::size_t k, util::ByteView message) {
  const Digest256 h = sha256(message);
  if (k < h.size() + 11)
    throw std::invalid_argument("rsa_sign: modulus too small for digest");
  util::Bytes eb;
  eb.reserve(k);
  eb.push_back(0x00);
  eb.push_back(0x01);
  eb.insert(eb.end(), k - 3 - h.size(), 0xff);
  eb.push_back(0x00);
  eb.insert(eb.end(), h.begin(), h.end());
  return eb;
}

}  // namespace

util::Bytes rsa_sign(const RsaPrivateKey& priv, util::ByteView message) {
  const std::size_t k = priv.modulus_bytes();
  const util::Bytes eb = signature_encoding(k, message);
  const BigUint m = BigUint::from_bytes_be(eb);
  // m < n: the encoding starts with a zero byte, so m has at most 8(k-1)
  // bits while n has more.
  const BigUint s = rsa_priv_exp(priv, m);
  return s.to_bytes_be(k);
}

bool rsa_verify(const RsaPublicKey& pub, util::ByteView message,
                util::ByteView signature) {
  const std::size_t k = pub.modulus_bytes();
  if (signature.size() != k) return false;
  const BigUint s = BigUint::from_bytes_be(signature);
  if (BigUint::compare(s, pub.n) >= 0) return false;
  const BigUint m = pow_mod(MontgomeryCtx::cached(pub.n), s, pub.e, pub.n);
  const util::Bytes expected = signature_encoding(k, message);
  return util::ct_equal(m.to_bytes_be(k), expected);
}

bool rsa_pair_matches(const RsaPublicKey& pub, const RsaPrivateKey& priv) {
  if (!(pub.n == priv.n)) return false;
  if (pub.n.is_zero() || priv.d.is_zero()) return false;
  // Round-trip probes: x^(e*d) == x (mod n) for fixed x. Two probes make a
  // coincidental match on a wrong-but-related key astronomically unlikely.
  // One context serves all four exponentiations (pub.n == priv.n here).
  const auto ctx = MontgomeryCtx::cached(pub.n);
  for (std::uint64_t probe : {0x42ULL, 0xdeadbeefULL}) {
    const BigUint x = BigUint(probe) % pub.n;
    const BigUint y = pow_mod(ctx, x, pub.e, pub.n);
    const BigUint back = rsa_priv_exp(priv, y);
    if (!(back == x)) return false;
  }
  return true;
}

bool rsa_crt_recover(RsaPrivateKey& key) {
  if (key.has_crt()) return true;
  const BigUint& n = key.n;
  if (n.is_zero() || n.is_even() || key.e.is_zero() || key.d.is_zero())
    return false;
  if (n.bit_length() < 16) return false;  // smaller than any real modulus
  if (split_from_phi(key)) return true;
  // e*d - 1 is a multiple of lambda(n), so for any base g, g^(e*d-1) == 1
  // (mod n). Walking the square-root chain of that unity (write
  // e*d - 1 = 2^s * t, t odd) finds a square root of 1 other than +-1 with
  // probability >= 1/2 per base, and gcd(root - 1, n) then splits n. The
  // base list is fixed so recovery is deterministic for a given key.
  BigUint k = key.e * key.d - BigUint(1);
  if (k.is_zero()) return false;
  std::size_t s = 0;
  while (k.is_even()) {
    k = k >> 1;
    ++s;
  }
  const BigUint t = k;
  const BigUint n_minus_1 = n - BigUint(1);
  const auto ctx = MontgomeryCtx::cached(n);
  for (const std::uint64_t g :
       {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL, 29ULL,
        31ULL, 37ULL}) {
    const BigUint base(g);
    const BigUint shared = BigUint::gcd(base, n);
    if (!shared.is_one()) {
      // The base itself divides n (never for real RSA moduli, but wire keys
      // are attacker-supplied).
      if (!(shared == n) && fill_crt_fields(key, shared, n / shared))
        return true;
      continue;
    }
    BigUint z = pow_mod(ctx, base, t, n);
    if (z.is_one() || z == n_minus_1) continue;
    for (std::size_t i = 0; i < s; ++i) {
      const BigUint w = BigUint::mod_mul(z, z, n);
      if (w.is_one()) {
        const BigUint f = BigUint::gcd(z - BigUint(1), n);
        if (!f.is_one() && !(f == n) && fill_crt_fields(key, f, n / f))
          return true;
        break;
      }
      if (w == n_minus_1) break;
      z = w;
    }
  }
  return false;
}

std::uint64_t rsa_crt_fault_count() noexcept {
  return g_crt_faults.load(std::memory_order_relaxed);
}

}  // namespace bcwan::crypto
