// ECDSA over secp256k1, implemented from scratch on bignum::BigUint.
//
// This is the signature scheme behind every blockchain transaction in the
// system (P2PKH outputs, OP_CHECKSIG) — the paper's chain is a Multichain /
// Bitcoin-0.10 fork, which uses exactly this curve. Point arithmetic uses
// Jacobian projective coordinates so a scalar multiplication needs a single
// field inversion.
//
// Nonces are deterministic (HMAC-SHA256 chain over the private key and the
// message digest, in the spirit of RFC 6979) so signing never consumes
// ambient randomness and simulation runs replay exactly.
#pragma once

#include <optional>

#include "bignum/biguint.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace bcwan::crypto {

/// Affine curve point; infinity is represented by std::nullopt at the API
/// boundary where relevant.
struct EcPoint {
  bignum::BigUint x;
  bignum::BigUint y;
  bool infinity = false;

  friend bool operator==(const EcPoint& a, const EcPoint& b) {
    if (a.infinity || b.infinity) return a.infinity == b.infinity;
    return a.x == b.x && a.y == b.y;
  }
};

/// secp256k1 group operations and parameters. `mul`/`add` are the
/// *reference* double-and-add ladder over BigUint field arithmetic — the
/// test oracle the fast core below answers to. No production call reaches
/// them: key derivation, signing and verification all run on
/// secp256k1_fast.cpp.
class Secp256k1 {
 public:
  static const bignum::BigUint& p();  // field prime
  static const bignum::BigUint& n();  // group order
  static const EcPoint& g();          // generator

  static EcPoint add(const EcPoint& a, const EcPoint& b);
  static EcPoint mul(const bignum::BigUint& k, const EcPoint& point);
  static bool on_curve(const EcPoint& point);
};

// --- Fast scalar multiplication (secp256k1_fast.cpp) -----------------------
//
// A dedicated fixed-width field core (4x64 limbs in standard form, products
// reduced by folding with 2^256 - p, Fermat inversion, no heap; see
// secp256k1_field.hpp) plus windowed-NAF recoding. Precomputed
// odd-multiple tables for the generator are built exactly once (race-free
// magic-static init) and shared by every thread. Both functions reduce
// their scalars mod n first, exactly like Secp256k1::mul, so they are
// drop-in interchangeable with the oracle.

/// k * G via 7-bit wNAF over the shared precomputed generator table (key
/// derivation, nonce points).
EcPoint ec_mul_gen(const bignum::BigUint& k);

/// u1*G + u2*Q in a single interleaved double-scalar pass (Shamir's trick):
/// one shared doubling chain, mixed additions against the fixed-base table,
/// Jacobian coordinates throughout with one final inversion.
EcPoint ec_shamir(const bignum::BigUint& u1, const bignum::BigUint& u2,
                  const EcPoint& q);

/// Batched-verification warmup: forces the one-time generator tables and
/// primes this thread's Montgomery contexts for the curve moduli, so a
/// checkqueue worker pays table/context resolution once per batch instead
/// of inside the first signature of every chunk.
void ecdsa_warmup();

struct EcdsaSignature {
  bignum::BigUint r;
  bignum::BigUint s;

  /// Fixed 64-byte encoding: r (32 BE) || s (32 BE).
  util::Bytes serialize() const;
  static std::optional<EcdsaSignature> deserialize(util::ByteView data);

  friend bool operator==(const EcdsaSignature&, const EcdsaSignature&) = default;
};

struct EcKeyPair {
  bignum::BigUint priv;  // scalar in [1, n-1]
  EcPoint pub;           // priv * G
};

/// Random key pair from the given generator.
EcKeyPair ec_generate(util::Rng& rng);

/// Key pair deterministically derived from a seed (used to give simulated
/// actors stable identities).
EcKeyPair ec_from_seed(util::ByteView seed);

/// Uncompressed SEC1 encoding: 0x04 || X (32) || Y (32). Decoding rejects
/// coordinates >= p, so every point has exactly one encoding.
util::Bytes ec_pubkey_encode(const EcPoint& pub);
std::optional<EcPoint> ec_pubkey_decode(util::ByteView data);

/// Sign SHA-256d(message) — Bitcoin's signature-hash convention.
EcdsaSignature ecdsa_sign(const bignum::BigUint& priv, util::ByteView message);

bool ecdsa_verify(const EcPoint& pub, util::ByteView message,
                  const EcdsaSignature& sig);

/// Digest-level entry points: `digest` is the already-computed
/// SHA-256d(message). Byte-identical to the message overloads (same nonce
/// derivation, same scalar reduction) — they exist so callers holding a
/// midstate-derived sighash digest (chain::PrecomputedTxData) skip
/// re-materializing and re-hashing the full message.
EcdsaSignature ecdsa_sign_digest(const bignum::BigUint& priv,
                                 const Digest256& digest);

bool ecdsa_verify_digest(const EcPoint& pub, const Digest256& digest,
                         const EcdsaSignature& sig);

/// The same verification with u1*G + u2*Q computed on the reference ladder
/// (Secp256k1::mul/add): the differential oracle for ecdsa_verify_digest.
bool ecdsa_verify_digest_oracle(const EcPoint& pub, const Digest256& digest,
                                const EcdsaSignature& sig);

}  // namespace bcwan::crypto
