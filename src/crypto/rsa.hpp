// RSA over bignum::BigUint — keygen, PKCS#1-v1.5-style encryption and
// signatures, and the public/private pair check behind OP_CHECKRSA512PAIR.
//
// BcWAN (§4.4/§5.1) uses RSA-512 twice per uplink:
//   * the gateway mints an *ephemeral* (ePk, eSk) pair per message; the node
//     encrypts its AES blob under ePk, and revealing eSk on-chain is what
//     the gateway gets paid for;
//   * the node signs (Em || ePk) with its provisioned secret Ska so the
//     recipient can authenticate the uplink.
// The paper chooses 512-bit moduli to keep LoRa payloads at 128 bytes and
// accepts the reduced security (§6); key size is a parameter here so the
// ABL-RSA ablation can sweep 512/1024/2048.
#pragma once

#include <cstddef>
#include <optional>

#include "bignum/biguint.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace bcwan::crypto {

struct RsaPublicKey {
  bignum::BigUint n;
  bignum::BigUint e;

  /// Modulus size in bytes (64 for RSA-512).
  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }

  util::Bytes serialize() const;
  static std::optional<RsaPublicKey> deserialize(util::ByteView data);

  friend bool operator==(const RsaPublicKey&, const RsaPublicKey&) = default;
};

struct RsaPrivateKey {
  bignum::BigUint n;
  bignum::BigUint e;
  bignum::BigUint d;

  // CRT acceleration parameters: p*q = n, dp = d mod p-1, dq = d mod q-1,
  // qinv = q^-1 mod p. Filled by rsa_generate (the primes are in hand) or
  // recovered from (n, e, d) by rsa_crt_recover; all-zero means absent and
  // every private-key operation falls back to the full-width exponent.
  // Deliberately NOT serialized: the on-chain reveal format (the consensus
  // encoding OP_CHECKRSA512PAIR deserializes) stays n‖e‖d, and CRT is
  // re-derived locally by whoever wants the speedup.
  bignum::BigUint p;
  bignum::BigUint q;
  bignum::BigUint dp;
  bignum::BigUint dq;
  bignum::BigUint qinv;

  bool has_crt() const { return !p.is_zero(); }

  std::size_t modulus_bytes() const { return (n.bit_length() + 7) / 8; }
  RsaPublicKey public_key() const { return {n, e}; }

  util::Bytes serialize() const;
  static std::optional<RsaPrivateKey> deserialize(util::ByteView data);

  /// Semantic identity: (n, e, d) only. A freshly generated key (CRT in
  /// hand) must equal its serialize/deserialize round trip (CRT dropped).
  friend bool operator==(const RsaPrivateKey& a, const RsaPrivateKey& b) {
    return a.n == b.n && a.e == b.e && a.d == b.d;
  }
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

/// Generate an RSA key pair with a modulus of exactly `modulus_bits` bits
/// (two modulus_bits/2-bit primes, e = 65537). modulus_bits must be a
/// multiple of 16 and >= 128.
RsaKeyPair rsa_generate(util::Rng& rng, std::size_t modulus_bits = 512);

/// PKCS#1 v1.5 type-2 encryption. Plaintext must be <= modulus_bytes - 11.
/// Output is exactly modulus_bytes long (64 bytes for RSA-512).
util::Bytes rsa_encrypt(const RsaPublicKey& pub, util::ByteView plaintext,
                        util::Rng& rng);

/// Returns std::nullopt on malformed padding or out-of-range ciphertext.
std::optional<util::Bytes> rsa_decrypt(const RsaPrivateKey& priv,
                                       util::ByteView ciphertext);

/// PKCS#1 v1.5 type-1 signature over SHA-256(message).
/// Output is exactly modulus_bytes long (64 bytes for RSA-512).
util::Bytes rsa_sign(const RsaPrivateKey& priv, util::ByteView message);

bool rsa_verify(const RsaPublicKey& pub, util::ByteView message,
                util::ByteView signature);

/// The OP_CHECKRSA512PAIR predicate (paper §4.4: "implemented using the
/// VerifyPubKey method of RSA_PrivKey"): true iff `priv` is the private key
/// matching `pub`. Checked algebraically by a round-trip on fixed probe
/// values, plus modulus equality.
bool rsa_pair_matches(const RsaPublicKey& pub, const RsaPrivateKey& priv);

/// Recover the CRT parameters of `key` from (n, e, d) by factoring n:
/// first the closed-form split that holds when d = e^-1 mod phi(n) (as
/// rsa_generate picks it), else the standard probabilistic reduction
/// (square roots of 1 along the e*d - 1 = 2^s * t chain), run over a fixed
/// deterministic base list.
/// Returns true and fills p/q/dp/dq/qinv on success; leaves the key
/// untouched (and returns false) when the key material is inconsistent.
/// Used to re-arm CRT on deserialized keys (on-chain reveals, gateway
/// decrypt keys), which carry only n‖e‖d on the wire.
bool rsa_crt_recover(RsaPrivateKey& key);

/// Count of CRT results that failed the public-exponent re-check and fell
/// back to the full-width exponent (a miscomputation can therefore never
/// escape into a signature, plaintext or pairing verdict). Process-wide,
/// monotonic; exercised by the fault-injection tests.
std::uint64_t rsa_crt_fault_count() noexcept;

}  // namespace bcwan::crypto
