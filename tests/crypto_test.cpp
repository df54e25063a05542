#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <thread>
#include <vector>

#include "bignum/montgomery.hpp"
#include "crypto/aes.hpp"
#include "crypto/base58.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/hmac.hpp"
#include "crypto/ripemd160.hpp"
#include "crypto/rsa.hpp"
#include "crypto/secp256k1_field.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace bcwan::crypto {
namespace {

using util::Bytes;
using util::ByteView;
using util::from_hex_strict;
using util::Rng;
using util::str_bytes;
using util::to_hex;

std::string hex256(const Digest256& d) { return to_hex(digest_bytes(d)); }
std::string hex160(const Digest160& d) { return to_hex(digest_bytes(d)); }

// --- SHA-256 (FIPS 180-4 vectors) ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex256(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex256(sha256(str_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex256(sha256(str_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  const Bytes data(1000000, 'a');
  EXPECT_EQ(hex256(sha256(data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Rng rng(1);
  const Bytes data = rng.bytes(1000);
  Sha256 ctx;
  // Feed in irregular chunk sizes to exercise buffering.
  std::size_t off = 0;
  for (std::size_t chunk : {1u, 63u, 64u, 65u, 200u, 607u}) {
    const std::size_t take = std::min(chunk, data.size() - off);
    ctx.update(ByteView(data.data() + off, take));
    off += take;
  }
  ctx.update(ByteView(data.data() + off, data.size() - off));
  EXPECT_EQ(ctx.finalize(), sha256(data));
}

TEST(Sha256, DoubleHash) {
  // sha256d("hello") — well-known value from Bitcoin documentation.
  EXPECT_EQ(hex256(sha256d(str_bytes("hello"))),
            "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50");
}

// --- RIPEMD-160 (Bosselaers vectors) ---

TEST(Ripemd160, EmptyString) {
  EXPECT_EQ(hex160(ripemd160({})),
            "9c1185a5c5e9fc54612808977ee8f548b2258d31");
}

TEST(Ripemd160, Abc) {
  EXPECT_EQ(hex160(ripemd160(str_bytes("abc"))),
            "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc");
}

TEST(Ripemd160, SingleA) {
  EXPECT_EQ(hex160(ripemd160(str_bytes("a"))),
            "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe");
}

TEST(Ripemd160, MessageDigest) {
  EXPECT_EQ(hex160(ripemd160(str_bytes("message digest"))),
            "5d0689ef49d2fae572b881b123a85ffa21595f36");
}

TEST(Ripemd160, Alphabet) {
  EXPECT_EQ(hex160(ripemd160(str_bytes("abcdefghijklmnopqrstuvwxyz"))),
            "f71c27109c692c1b56bbdceb5b9d2865b3708dbc");
}

TEST(Ripemd160, LongPaddingBoundary) {
  // 56..64-byte inputs cross the two-block padding boundary.
  for (std::size_t len = 50; len <= 70; ++len) {
    const Bytes data(len, 'x');
    EXPECT_EQ(ripemd160(data).size(), 20u);
  }
}

TEST(Hash160, KnownPubkeyHash) {
  // HASH160 of the uncompressed generator-point pubkey (Bitcoin's
  // "Satoshi" test value): computed as ripemd160(sha256(x)) by definition.
  const Bytes data = str_bytes("bcwan");
  const Digest256 inner = sha256(data);
  EXPECT_EQ(hash160(data), ripemd160(ByteView(inner.data(), inner.size())));
}

// --- HMAC-SHA256 (RFC 4231 vectors) ---

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex256(hmac_sha256(key, str_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex256(hmac_sha256(str_bytes("Jefe"),
                               str_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashed) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      hex256(hmac_sha256(
          key, str_bytes("Test Using Larger Than Block-Size Key - Hash Key "
                         "First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- AES-256 (FIPS 197 + CBC round trips) ---

TEST(Aes, Fips197Vector) {
  AesKey256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  AesBlock pt;
  const Bytes pt_raw = from_hex_strict("00112233445566778899aabbccddeeff");
  std::copy(pt_raw.begin(), pt_raw.end(), pt.begin());

  const Aes256 cipher(key);
  const AesBlock ct = cipher.encrypt_block(pt);
  EXPECT_EQ(to_hex(Bytes(ct.begin(), ct.end())),
            "8ea2b7ca516745bfeafc49904b496089");
  EXPECT_EQ(cipher.decrypt_block(ct), pt);
}

TEST(Aes, NistSp80038aCbcVector) {
  // NIST SP 800-38A F.2.5 (CBC-AES256.Encrypt), first block. Our API adds
  // PKCS#7 padding, so only the first 16 ciphertext bytes correspond.
  AesKey256 key;
  const Bytes key_raw = from_hex_strict(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  std::copy(key_raw.begin(), key_raw.end(), key.begin());
  AesBlock iv;
  const Bytes iv_raw = from_hex_strict("000102030405060708090a0b0c0d0e0f");
  std::copy(iv_raw.begin(), iv_raw.end(), iv.begin());
  const Bytes pt = from_hex_strict("6bc1bee22e409f96e93d7e117393172a");
  const Bytes ct = aes256_cbc_encrypt(key, iv, pt);
  ASSERT_GE(ct.size(), 16u);
  EXPECT_EQ(to_hex(Bytes(ct.begin(), ct.begin() + 16)),
            "f58c4c04d6e5f1ba779eabfb5f7bfbd6");
}

TEST(Aes, CbcRoundTripVariousLengths) {
  Rng rng(2);
  AesKey256 key;
  const Bytes key_raw = rng.bytes(32);
  std::copy(key_raw.begin(), key_raw.end(), key.begin());
  AesBlock iv;
  const Bytes iv_raw = rng.bytes(16);
  std::copy(iv_raw.begin(), iv_raw.end(), iv.begin());

  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 100u}) {
    const Bytes pt = rng.bytes(len);
    const Bytes ct = aes256_cbc_encrypt(key, iv, pt);
    EXPECT_EQ(ct.size() % kAesBlockSize, 0u);
    EXPECT_GE(ct.size(), len);  // padding never shrinks
    const auto back = aes256_cbc_decrypt(key, iv, ct);
    ASSERT_TRUE(back.has_value()) << len;
    EXPECT_EQ(*back, pt);
  }
}

TEST(Aes, PaperSizedMessageIsOneBlock) {
  // §5.1: readings are < 16 bytes, so ciphertext is exactly 16 bytes and the
  // Fig. 4 blob is 1 + 16 + 1 + 16 = 34 bytes.
  Rng rng(3);
  AesKey256 key{};
  AesBlock iv{};
  const Bytes reading = str_bytes("t=21.5C;h=40%");
  ASSERT_LT(reading.size(), 16u);
  const Bytes ct = aes256_cbc_encrypt(key, iv, reading);
  EXPECT_EQ(ct.size(), 16u);
}

TEST(Aes, CbcRejectsCorruptPadding) {
  Rng rng(4);
  AesKey256 key{};
  AesBlock iv{};
  Bytes ct = aes256_cbc_encrypt(key, iv, str_bytes("hello"));
  ct.back() ^= 0xff;
  // Either padding check fails or (rarely) content differs; padding check
  // must not crash and usually rejects.
  const auto out = aes256_cbc_decrypt(key, iv, ct);
  if (out) {
    EXPECT_NE(*out, str_bytes("hello"));
  }
}

TEST(Aes, CbcRejectsBadLengths) {
  AesKey256 key{};
  AesBlock iv{};
  EXPECT_FALSE(aes256_cbc_decrypt(key, iv, Bytes{}).has_value());
  EXPECT_FALSE(aes256_cbc_decrypt(key, iv, Bytes(15, 0)).has_value());
}

TEST(Aes, DifferentIvDifferentCiphertext) {
  AesKey256 key{};
  AesBlock iv1{};
  AesBlock iv2{};
  iv2[0] = 1;
  const Bytes pt = str_bytes("same plaintext!");
  EXPECT_NE(aes256_cbc_encrypt(key, iv1, pt), aes256_cbc_encrypt(key, iv2, pt));
}

TEST(Hmac, EmptyInputs) {
  // HMAC with empty key and empty message still produces a fixed digest.
  const Digest256 a = hmac_sha256({}, {});
  const Digest256 b = hmac_sha256({}, {});
  EXPECT_EQ(a, b);
  EXPECT_NE(hex256(a), hex256(hmac_sha256(str_bytes("k"), {})));
}

TEST(Sha256, BlockBoundaryLengths) {
  // Lengths around the 64-byte block / 56-byte padding boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes data(len, 0x61);
    Sha256 ctx;
    // Incremental one-byte feed must equal the one-shot digest.
    for (std::size_t i = 0; i < len; ++i)
      ctx.update(ByteView(data.data() + i, 1));
    EXPECT_EQ(ctx.finalize(), sha256(data)) << len;
  }
}

// --- RSA ---

class RsaFixture : public ::testing::Test {
 protected:
  static const RsaKeyPair& pair512() {
    static const RsaKeyPair kp = [] {
      Rng rng(100);
      return rsa_generate(rng, 512);
    }();
    return kp;
  }
};

TEST_F(RsaFixture, ModulusExactly512Bits) {
  EXPECT_EQ(pair512().pub.n.bit_length(), 512u);
  EXPECT_EQ(pair512().pub.modulus_bytes(), 64u);
}

TEST_F(RsaFixture, EncryptDecryptRoundTrip) {
  Rng rng(101);
  const Bytes msg = str_bytes("ephemeral payload 34 bytes long!!x");
  ASSERT_EQ(msg.size(), 34u);  // the Fig. 4 blob size
  const Bytes ct = rsa_encrypt(pair512().pub, msg, rng);
  EXPECT_EQ(ct.size(), 64u);  // §5.1: 64-byte RSA-512 blob
  const auto back = rsa_decrypt(pair512().priv, ct);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, msg);
}

TEST_F(RsaFixture, EncryptionIsRandomized) {
  Rng rng(102);
  const Bytes msg = str_bytes("m");
  EXPECT_NE(rsa_encrypt(pair512().pub, msg, rng),
            rsa_encrypt(pair512().pub, msg, rng));
}

TEST_F(RsaFixture, PlaintextTooLongThrows) {
  Rng rng(103);
  EXPECT_THROW(rsa_encrypt(pair512().pub, Bytes(54, 0), rng),
               std::invalid_argument);
  EXPECT_NO_THROW(rsa_encrypt(pair512().pub, Bytes(53, 0), rng));
}

TEST_F(RsaFixture, DecryptRejectsGarbage) {
  EXPECT_FALSE(rsa_decrypt(pair512().priv, Bytes(63, 7)).has_value());
  EXPECT_FALSE(rsa_decrypt(pair512().priv, Bytes(64, 0xff)).has_value());
}

TEST_F(RsaFixture, SignVerify) {
  const Bytes msg = str_bytes("Em || ePk");
  const Bytes sig = rsa_sign(pair512().priv, msg);
  EXPECT_EQ(sig.size(), 64u);  // §5.1: 64-byte signature
  EXPECT_TRUE(rsa_verify(pair512().pub, msg, sig));
  EXPECT_FALSE(rsa_verify(pair512().pub, str_bytes("Em || ePk'"), sig));
  Bytes tampered = sig;
  tampered[10] ^= 1;
  EXPECT_FALSE(rsa_verify(pair512().pub, msg, tampered));
}

TEST_F(RsaFixture, VerifyRejectsWrongKey) {
  Rng rng(104);
  const RsaKeyPair other = rsa_generate(rng, 512);
  const Bytes msg = str_bytes("msg");
  const Bytes sig = rsa_sign(pair512().priv, msg);
  EXPECT_FALSE(rsa_verify(other.pub, msg, sig));
}

TEST_F(RsaFixture, PairMatches) {
  EXPECT_TRUE(rsa_pair_matches(pair512().pub, pair512().priv));
  Rng rng(105);
  const RsaKeyPair other = rsa_generate(rng, 512);
  EXPECT_FALSE(rsa_pair_matches(pair512().pub, other.priv));
  EXPECT_FALSE(rsa_pair_matches(other.pub, pair512().priv));
}

TEST_F(RsaFixture, PairMatchRejectsMatchingModulusWrongExponent) {
  RsaPrivateKey corrupted = pair512().priv;
  corrupted.d = corrupted.d + bignum::BigUint(2);
  EXPECT_FALSE(rsa_pair_matches(pair512().pub, corrupted));
}

TEST_F(RsaFixture, KeySerializationRoundTrip) {
  const auto pub_ser = pair512().pub.serialize();
  const auto pub_back = RsaPublicKey::deserialize(pub_ser);
  ASSERT_TRUE(pub_back.has_value());
  EXPECT_EQ(*pub_back, pair512().pub);

  const auto priv_ser = pair512().priv.serialize();
  const auto priv_back = RsaPrivateKey::deserialize(priv_ser);
  ASSERT_TRUE(priv_back.has_value());
  EXPECT_EQ(*priv_back, pair512().priv);

  EXPECT_FALSE(RsaPublicKey::deserialize(Bytes{0x01}).has_value());
  EXPECT_FALSE(RsaPrivateKey::deserialize(Bytes{}).has_value());
}

TEST(Rsa, LargerModuli) {
  Rng rng(106);
  for (std::size_t bits : {768u, 1024u}) {
    const RsaKeyPair kp = rsa_generate(rng, bits);
    EXPECT_EQ(kp.pub.n.bit_length(), bits);
    const Bytes msg = str_bytes("ablation");
    const Bytes ct = rsa_encrypt(kp.pub, msg, rng);
    EXPECT_EQ(ct.size(), bits / 8);
    EXPECT_EQ(rsa_decrypt(kp.priv, ct), msg);
    EXPECT_TRUE(rsa_verify(kp.pub, msg, rsa_sign(kp.priv, msg)));
  }
}

TEST(Rsa, GeneratedKeysPinned) {
  // Digest of (n, e, d, p, q) and the next RNG draw after rsa_generate,
  // recorded from the textbook implementation (trial division by BigUint
  // division, Miller-Rabin squarings through Knuth division, 32-bit-limb
  // Montgomery). Faster keygen must find the same primes with the same
  // random draws.
  const struct {
    std::uint64_t seed;
    std::size_t bits;
    const char* digest;
    std::uint64_t next_draw;
  } cases[] = {
      {1, 512, "d603acfe93fa2809", 0xe89f153af8a4a418ULL},
      {2, 512, "e726b66cacbb7d7a", 0x1802cebb9148bd81ULL},
      {3, 512, "7160fc7cb678b9a7", 0x19c58446d869b661ULL},
      {7, 768, "cbc7a9ebe0caf4cd", 0x50ad19b7c7752627ULL},
      {11, 1024, "9be0931025af0d04", 0xf6be59b651e11e14ULL},
  };
  for (const auto& c : cases) {
    Rng rng(c.seed);
    const RsaKeyPair kp = rsa_generate(rng, c.bits);
    Bytes blob = kp.priv.serialize();
    for (const bignum::BigUint* v : {&kp.priv.p, &kp.priv.q}) {
      const Bytes be = v->to_bytes_be();
      blob.insert(blob.end(), be.begin(), be.end());
    }
    const Digest256 h = sha256(blob);
    EXPECT_EQ(to_hex(ByteView(h.data(), 8)), c.digest) << c.bits;
    EXPECT_EQ(rng.next(), c.next_draw) << c.bits;
  }
}

TEST(Rsa, KeygenKeepsHotMontgomeryContexts) {
  // Prime candidates are one-shot moduli: a few keygens must not push a hot
  // modulus (secp256k1 n, a federation RSA key) out of the context cache.
  Rng rng(114);
  const bignum::BigUint hot = rsa_generate(rng, 512).pub.n;
  const auto before = bignum::MontgomeryCtx::cached(hot);
  ASSERT_NE(before, nullptr);
  for (int i = 0; i < 3; ++i) (void)rsa_generate(rng, 512);
  EXPECT_EQ(bignum::MontgomeryCtx::cached(hot), before);
}

// --- RSA-CRT fast path vs the full-width reference ---
//
// Every private-key operation runs on CRT when it can. It must be
// observationally identical to the full-width exponent x^d mod n, computed
// here with BigUint::mod_exp: same signature bytes, same plaintexts, same
// pairing verdicts.

namespace {

bignum::BigUint full_width(const RsaPrivateKey& priv, const bignum::BigUint& x) {
  return bignum::BigUint::mod_exp(x, priv.d, priv.n);
}

/// PKCS#1 v1.5 type-1 signature over SHA-256(message), full-width exponent.
Bytes reference_sign(const RsaPrivateKey& priv, ByteView message) {
  const std::size_t k = priv.modulus_bytes();
  const Digest256 h = sha256(message);
  Bytes eb{0x00, 0x01};
  eb.insert(eb.end(), k - 3 - h.size(), 0xff);
  eb.push_back(0x00);
  eb.insert(eb.end(), h.begin(), h.end());
  return full_width(priv, bignum::BigUint::from_bytes_be(eb)).to_bytes_be(k);
}

/// PKCS#1 v1.5 type-2 decryption of a well-formed ciphertext, full-width
/// exponent.
Bytes reference_decrypt(const RsaPrivateKey& priv, ByteView ciphertext) {
  const Bytes eb = full_width(priv, bignum::BigUint::from_bytes_be(ciphertext))
                       .to_bytes_be(priv.modulus_bytes());
  const auto sep = std::find(eb.begin() + 2, eb.end(), 0x00);
  return Bytes(sep + 1, eb.end());
}

/// The OP_CHECKRSA512PAIR probe round trip, full-width exponent.
bool reference_pair_matches(const RsaPublicKey& pub, const RsaPrivateKey& priv) {
  if (!(pub.n == priv.n)) return false;
  for (std::uint64_t probe : {0x42ULL, 0xdeadbeefULL}) {
    const bignum::BigUint x = bignum::BigUint(probe) % pub.n;
    if (!(full_width(priv, bignum::BigUint::mod_exp(x, pub.e, pub.n)) == x))
      return false;
  }
  return true;
}

}  // namespace

TEST_F(RsaFixture, CrtParamsFilledByGenerateAndConsistent) {
  const RsaPrivateKey& priv = pair512().priv;
  ASSERT_TRUE(priv.has_crt());
  EXPECT_EQ(priv.p * priv.q, priv.n);
  EXPECT_EQ(priv.dp, priv.d % (priv.p - bignum::BigUint(1)));
  EXPECT_EQ(priv.dq, priv.d % (priv.q - bignum::BigUint(1)));
  EXPECT_EQ(bignum::BigUint::mod_mul(priv.qinv, priv.q % priv.p, priv.p),
            bignum::BigUint(1));
}

TEST_F(RsaFixture, CrtMatchesReferenceOnAllPrivateOps) {
  Rng rng(110);
  const Bytes msg = str_bytes("crt differential payload");
  const Bytes ct = rsa_encrypt(pair512().pub, msg, rng);
  const RsaPrivateKey& priv = pair512().priv;

  // Byte-identical signatures, not just both-valid.
  EXPECT_EQ(rsa_sign(priv, msg), reference_sign(priv, msg));
  const std::optional<Bytes> pt = rsa_decrypt(priv, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, reference_decrypt(priv, ct));
  EXPECT_EQ(*pt, msg);
  EXPECT_TRUE(rsa_pair_matches(pair512().pub, priv));
  EXPECT_TRUE(reference_pair_matches(pair512().pub, priv));

  // A wrong d with no CRT material (recovery fails, full-width path):
  // both reject.
  RsaPrivateKey wrong;
  wrong.n = priv.n;
  wrong.e = priv.e;
  wrong.d = priv.d + bignum::BigUint(2);
  EXPECT_FALSE(rsa_pair_matches(pair512().pub, wrong));
  EXPECT_FALSE(reference_pair_matches(pair512().pub, wrong));
}

TEST_F(RsaFixture, CrtRecoveryFromWireKey) {
  // On-chain reveals carry only n||e||d: the deserialized key has no CRT
  // fields, and recovery must refactor n from (e, d).
  const auto wire = RsaPrivateKey::deserialize(pair512().priv.serialize());
  ASSERT_TRUE(wire.has_value());
  RsaPrivateKey key = *wire;
  EXPECT_FALSE(key.has_crt());
  ASSERT_TRUE(rsa_crt_recover(key));
  ASSERT_TRUE(key.has_crt());
  EXPECT_EQ(key.p * key.q, key.n);
  // Same factor set as the generator produced (order may differ).
  const RsaPrivateKey& orig = pair512().priv;
  EXPECT_TRUE((key.p == orig.p && key.q == orig.q) ||
              (key.p == orig.q && key.q == orig.p));
  // Recovery is idempotent.
  EXPECT_TRUE(rsa_crt_recover(key));

  // d taken mod lambda(n) = lcm(p-1, q-1), as other RSA stacks emit it:
  // e*d - 1 is then no multiple of phi(n), so the closed-form split cannot
  // apply and recovery takes the square-root walk.
  using bignum::BigUint;
  const BigUint p1 = orig.p - BigUint(1);
  const BigUint q1 = orig.q - BigUint(1);
  const BigUint lambda = p1 * q1 / BigUint::gcd(p1, q1);
  RsaPrivateKey reduced = *wire;
  reduced.d = orig.d % lambda;
  ASSERT_FALSE(
      ((reduced.e * reduced.d - BigUint(1)) % (p1 * q1)).is_zero());
  EXPECT_TRUE(rsa_pair_matches(pair512().pub, reduced));
  ASSERT_TRUE(rsa_crt_recover(reduced));
  EXPECT_TRUE((reduced.p == orig.p && reduced.q == orig.q) ||
              (reduced.p == orig.q && reduced.q == orig.p));
  EXPECT_TRUE(rsa_pair_matches(pair512().pub, reduced));  // via its CRT
}

TEST_F(RsaFixture, WireKeyOpsMatchGeneratedKeyUnderCrt) {
  // The thread-local recovery cache path: private ops on a CRT-less
  // deserialized key must produce the same bytes as the generated key and
  // the full-width reference.
  const auto wire = RsaPrivateKey::deserialize(pair512().priv.serialize());
  ASSERT_TRUE(wire.has_value());
  EXPECT_FALSE(wire->has_crt());
  Rng rng(111);
  const Bytes msg = str_bytes("wire key payload");
  const Bytes ct = rsa_encrypt(pair512().pub, msg, rng);
  EXPECT_EQ(rsa_sign(*wire, msg), rsa_sign(pair512().priv, msg));
  EXPECT_EQ(rsa_sign(*wire, msg), reference_sign(*wire, msg));
  EXPECT_EQ(rsa_decrypt(*wire, ct), rsa_decrypt(pair512().priv, ct));
  EXPECT_TRUE(rsa_pair_matches(pair512().pub, *wire));
}

TEST_F(RsaFixture, CorruptedCrtParamsFallBackAndStayCorrect) {
  RsaPrivateKey sabotaged = pair512().priv;
  ASSERT_TRUE(sabotaged.has_crt());
  sabotaged.dp = sabotaged.dp + bignum::BigUint(2);  // wrong but plausible
  const Bytes msg = str_bytes("fault injection");
  const std::uint64_t faults_before = rsa_crt_fault_count();
  const Bytes sig = rsa_sign(sabotaged, msg);
  // The public-exponent re-check caught the miscomputation, counted it, and
  // the full-width fallback still produced the correct signature.
  EXPECT_GT(rsa_crt_fault_count(), faults_before);
  EXPECT_EQ(sig, reference_sign(pair512().priv, msg));
  EXPECT_TRUE(rsa_verify(pair512().pub, msg, sig));
}

TEST(RsaCrt, RecoveryRejectsInconsistentKeys) {
  Rng rng(112);
  const RsaKeyPair kp = rsa_generate(rng, 512);
  // d corrupted: e*d - 1 is no longer a multiple of lambda(n), so the
  // square-root chain never finds a factor.
  RsaPrivateKey bad_d;
  bad_d.n = kp.priv.n;
  bad_d.e = kp.priv.e;
  bad_d.d = kp.priv.d + bignum::BigUint(2);
  EXPECT_FALSE(rsa_crt_recover(bad_d));
  EXPECT_FALSE(bad_d.has_crt());

  RsaPrivateKey zero_e = bad_d;
  zero_e.d = kp.priv.d;
  zero_e.e = bignum::BigUint();
  EXPECT_FALSE(rsa_crt_recover(zero_e));

  RsaPrivateKey even_n = kp.priv;
  even_n.p = even_n.q = even_n.dp = even_n.dq = even_n.qinv = bignum::BigUint();
  even_n.n = even_n.n + bignum::BigUint(1);  // even, certainly not p*q
  EXPECT_FALSE(rsa_crt_recover(even_n));
}

TEST(RsaCrt, LargerModuliDifferential) {
  Rng rng(113);
  const RsaKeyPair kp = rsa_generate(rng, 1024);
  ASSERT_TRUE(kp.priv.has_crt());
  const Bytes msg = str_bytes("1024-bit crt");
  const Bytes sig = rsa_sign(kp.priv, msg);
  EXPECT_EQ(sig, reference_sign(kp.priv, msg));
  EXPECT_TRUE(rsa_verify(kp.pub, msg, sig));
}

// --- ECDSA secp256k1 ---

TEST(Ecdsa, GeneratorOnCurve) {
  EXPECT_TRUE(Secp256k1::on_curve(Secp256k1::g()));
}

TEST(Ecdsa, GroupOrderAnnihilatesGenerator) {
  const EcPoint ng = Secp256k1::mul(Secp256k1::n(), Secp256k1::g());
  EXPECT_TRUE(ng.infinity);
}

TEST(Ecdsa, KnownScalarMultiple) {
  // 2G, well-known value.
  const EcPoint g2 = Secp256k1::mul(bignum::BigUint(2), Secp256k1::g());
  EXPECT_EQ(g2.x.to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(g2.y.to_hex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Ecdsa, AddCommutesWithMul) {
  const EcPoint g = Secp256k1::g();
  const EcPoint g2 = Secp256k1::add(g, g);
  const EcPoint g3a = Secp256k1::add(g2, g);
  const EcPoint g3b = Secp256k1::mul(bignum::BigUint(3), g);
  EXPECT_EQ(g3a, g3b);
}

TEST(Ecdsa, AddInverseGivesInfinity) {
  const EcPoint g = Secp256k1::g();
  const EcPoint neg{g.x, Secp256k1::p() - g.y, false};
  EXPECT_TRUE(Secp256k1::add(g, neg).infinity);
}

TEST(Ecdsa, SignVerifyRoundTrip) {
  Rng rng(200);
  const EcKeyPair kp = ec_generate(rng);
  EXPECT_TRUE(Secp256k1::on_curve(kp.pub));
  const Bytes msg = str_bytes("transaction bytes");
  const EcdsaSignature sig = ecdsa_sign(kp.priv, msg);
  EXPECT_TRUE(ecdsa_verify(kp.pub, msg, sig));
  EXPECT_FALSE(ecdsa_verify(kp.pub, str_bytes("other"), sig));
}

TEST(Ecdsa, SignatureIsDeterministic) {
  Rng rng(201);
  const EcKeyPair kp = ec_generate(rng);
  const Bytes msg = str_bytes("same message");
  EXPECT_EQ(ecdsa_sign(kp.priv, msg), ecdsa_sign(kp.priv, msg));
}

TEST(Ecdsa, WrongKeyRejected) {
  Rng rng(202);
  const EcKeyPair kp1 = ec_generate(rng);
  const EcKeyPair kp2 = ec_generate(rng);
  const Bytes msg = str_bytes("msg");
  EXPECT_FALSE(ecdsa_verify(kp2.pub, msg, ecdsa_sign(kp1.priv, msg)));
}

TEST(Ecdsa, TamperedSignatureRejected) {
  Rng rng(203);
  const EcKeyPair kp = ec_generate(rng);
  const Bytes msg = str_bytes("msg");
  EcdsaSignature sig = ecdsa_sign(kp.priv, msg);
  sig.r = sig.r + bignum::BigUint(1);
  EXPECT_FALSE(ecdsa_verify(kp.pub, msg, sig));
}

TEST(Ecdsa, LowSNormalization) {
  Rng rng(204);
  const EcKeyPair kp = ec_generate(rng);
  for (int i = 0; i < 10; ++i) {
    const Bytes msg = rng.bytes(32);
    const EcdsaSignature sig = ecdsa_sign(kp.priv, msg);
    EXPECT_TRUE(sig.s <= Secp256k1::n() >> 1);
  }
}

TEST(Ecdsa, PubkeyEncodeDecodeRoundTrip) {
  Rng rng(205);
  const EcKeyPair kp = ec_generate(rng);
  const Bytes enc = ec_pubkey_encode(kp.pub);
  EXPECT_EQ(enc.size(), 65u);
  EXPECT_EQ(enc[0], 0x04);
  const auto back = ec_pubkey_decode(enc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, kp.pub);
}

TEST(Ecdsa, PubkeyDecodeRejectsOffCurve) {
  Rng rng(206);
  const EcKeyPair kp = ec_generate(rng);
  Bytes enc = ec_pubkey_encode(kp.pub);
  enc[40] ^= 1;
  EXPECT_FALSE(ec_pubkey_decode(enc).has_value());
  EXPECT_FALSE(ec_pubkey_decode(Bytes(64, 4)).has_value());
}

TEST(Ecdsa, PubkeyDecodeRejectsNonCanonicalCoordinates) {
  // (1, sqrt(8)) is on the curve, and so is every coordinate congruent to
  // it mod p. x = 1 + p still fits in 32 bytes, so without a range check
  // one key would have two encodings and two P2PKH hashes.
  const bignum::BigUint& p = Secp256k1::p();
  const bignum::BigUint one(1);
  const EcPoint point{one, bignum::BigUint::mod_exp(bignum::BigUint(8),
                                                    (p + one) >> 2, p),
                      false};
  ASSERT_TRUE(Secp256k1::on_curve(point));
  Bytes enc = ec_pubkey_encode(point);
  ASSERT_TRUE(ec_pubkey_decode(enc).has_value());
  const Bytes x_plus_p = (p + one).to_bytes_be(32);
  std::copy(x_plus_p.begin(), x_plus_p.end(), enc.begin() + 1);
  EXPECT_FALSE(ec_pubkey_decode(enc).has_value());
  // y >= p is rejected the same way.
  Bytes y_at_p = ec_pubkey_encode(point);
  const Bytes p_bytes = p.to_bytes_be(32);
  std::copy(p_bytes.begin(), p_bytes.end(), y_at_p.begin() + 33);
  EXPECT_FALSE(ec_pubkey_decode(y_at_p).has_value());
}

TEST(Ecdsa, SignatureSerializationRoundTrip) {
  Rng rng(207);
  const EcKeyPair kp = ec_generate(rng);
  const EcdsaSignature sig = ecdsa_sign(kp.priv, str_bytes("x"));
  const Bytes ser = sig.serialize();
  EXPECT_EQ(ser.size(), 64u);
  const auto back = EcdsaSignature::deserialize(ser);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, sig);
  EXPECT_FALSE(EcdsaSignature::deserialize(Bytes(63, 1)).has_value());
  EXPECT_FALSE(EcdsaSignature::deserialize(Bytes(64, 0)).has_value());
}

TEST(Ecdsa, SeededIdentityIsStable) {
  const EcKeyPair a = ec_from_seed(str_bytes("gateway-1"));
  const EcKeyPair b = ec_from_seed(str_bytes("gateway-1"));
  const EcKeyPair c = ec_from_seed(str_bytes("gateway-2"));
  EXPECT_EQ(a.priv, b.priv);
  EXPECT_FALSE(a.priv == c.priv);
  EXPECT_TRUE(Secp256k1::on_curve(a.pub));
}

TEST(Ecdsa, SignaturesPinned) {
  // ~200 deterministic signatures (plus their public keys, which run through
  // ec_mul_gen) hashed into one digest. Nonces are deterministic, so any
  // change to the field core, the scalar inverses or the nonce derivation
  // that alters a single bit of a signature or key moves this pin.
  Sha256 acc;
  for (int i = 0; i < 200; ++i) {
    const std::string tag = "pinned-" + std::to_string(i);
    const EcKeyPair kp = ec_from_seed(str_bytes(tag));
    const Digest256 digest = sha256d(str_bytes("msg/" + tag));
    const EcdsaSignature sig = ecdsa_sign_digest(kp.priv, digest);
    ASSERT_TRUE(ecdsa_verify_digest(kp.pub, digest, sig)) << i;
    acc.update(ec_pubkey_encode(kp.pub));
    acc.update(sig.serialize());
  }
  EXPECT_EQ(hex256(acc.finalize()), "d24ac101ae1c34724a27712ac22bfe9452952033c356927b9f23cac3c4375d18");
}

// --- secp256k1 field core vs BigUint mod p ---
//
// Every 4x64 operation is checked against BigUint arithmetic mod p on
// random operands and on the edges where a fold or the final conditional
// subtraction changes course.

namespace {

field::Fe to_fe(const bignum::BigUint& v) {
  const Bytes be = v.to_bytes_be(32);
  return field::fe_from_be(be.data());
}

bignum::BigUint from_fe(const field::Fe& a) {
  std::uint8_t be[32];
  field::fe_to_be(a, be);
  return bignum::BigUint::from_bytes_be(ByteView(be, sizeof be));
}

std::vector<bignum::BigUint> field_operands() {
  using bignum::BigUint;
  const BigUint& p = Secp256k1::p();
  const BigUint two256 = BigUint(1) << 256;
  std::vector<BigUint> v = {BigUint(0),
                            BigUint(1),
                            BigUint(2),
                            p - BigUint(1),
                            p - BigUint(2),
                            BigUint(1) << 255,
                            (BigUint(1) << 255) - BigUint(1),
                            BigUint(field::kC),
                            // Largest value below 2^256 - 2^64: the product
                            // of two such has an all-ones high half, so the
                            // first fold carries past 2^256.
                            p - (BigUint(1) << 64),
                            two256 - (BigUint(1) << 128) - BigUint(7),
                            (two256 - BigUint(1)) % p,
                            BigUint(0xffffffffffffffffULL)};
  Rng rng(500);
  for (int i = 0; i < 64; ++i)
    v.push_back(BigUint::from_bytes_be(rng.bytes(32)) % p);
  return v;
}

}  // namespace

TEST(Secp256k1Field, EncodingRoundTrips) {
  for (const bignum::BigUint& a : field_operands())
    EXPECT_EQ(from_fe(to_fe(a)), a) << a.to_hex();
}

TEST(Secp256k1Field, MulSqrMatchBigUint) {
  using bignum::BigUint;
  const BigUint& p = Secp256k1::p();
  const std::vector<BigUint> ops = field_operands();
  for (const BigUint& a : ops) {
    field::Fe sq;
    field::fe_sqr(to_fe(a), sq);
    EXPECT_EQ(from_fe(sq), BigUint::mod_mul_basic(a, a, p)) << a.to_hex();
    for (const BigUint& b : ops) {
      field::Fe prod;
      field::fe_mul(to_fe(a), to_fe(b), prod);
      ASSERT_EQ(from_fe(prod), BigUint::mod_mul_basic(a, b, p))
          << a.to_hex() << " * " << b.to_hex();
    }
  }
}

TEST(Secp256k1Field, FoldsCarryPastTwo256) {
  // (p-1)^2: hi * C + lo overflows 256 bits, so the second fold runs.
  using bignum::BigUint;
  const BigUint& p = Secp256k1::p();
  const BigUint a = p - BigUint(1);
  const BigUint prod = a * a;
  const BigUint lo = prod % (BigUint(1) << 256);
  const BigUint hi = prod >> 256;
  ASSERT_GE(lo + hi * BigUint(field::kC), BigUint(1) << 256);
  field::Fe out;
  field::fe_mul(to_fe(a), to_fe(a), out);
  EXPECT_EQ(from_fe(out), BigUint(1));  // (-1)^2

  // All-ones 512 bits: the first fold leaves p - 1 with a top word of
  // C + 1, and folding that top word back carries out of limb 3 as well.
  const field::u64 ones[8] = {~0ULL, ~0ULL, ~0ULL, ~0ULL,
                              ~0ULL, ~0ULL, ~0ULL, ~0ULL};
  field::fe_reduce_wide(ones, out);
  EXPECT_EQ(from_fe(out), ((BigUint(1) << 512) - BigUint(1)) % p);
}

TEST(Secp256k1Field, AddSubNegMatchBigUint) {
  using bignum::BigUint;
  const BigUint& p = Secp256k1::p();
  const std::vector<BigUint> ops = field_operands();
  for (const BigUint& a : ops) {
    field::Fe neg;
    field::fe_neg(to_fe(a), neg);
    EXPECT_EQ(from_fe(neg), a.is_zero() ? a : p - a) << a.to_hex();
    for (const BigUint& b : ops) {
      field::Fe sum, diff;
      field::fe_add(to_fe(a), to_fe(b), sum);
      field::fe_sub(to_fe(a), to_fe(b), diff);
      ASSERT_EQ(from_fe(sum), BigUint::mod_add(a, b, p))
          << a.to_hex() << " + " << b.to_hex();
      ASSERT_EQ(from_fe(diff), BigUint::mod_sub(a, b, p))
          << a.to_hex() << " - " << b.to_hex();
    }
  }
}

TEST(Secp256k1Field, InverseMatchesBigUint) {
  using bignum::BigUint;
  const BigUint& p = Secp256k1::p();
  for (const BigUint& a : field_operands()) {
    field::Fe inv;
    field::fe_inv(to_fe(a), inv);
    if (a.is_zero()) {
      EXPECT_TRUE(field::fe_is_zero(inv));  // 0^(p-2) = 0
      continue;
    }
    EXPECT_EQ(from_fe(inv), *BigUint::mod_inv(a, p)) << a.to_hex();
  }
}

// --- ECDSA fast paths (wNAF / Shamir) vs the reference oracle ---
//
// Secp256k1::mul/add is the untouched double-and-add ladder; every fast-path
// result must match it bit for bit, including the edge scalars 0, 1, n-1, n
// and point-at-infinity inputs.

namespace {

using bignum::BigUint;

std::vector<BigUint> edge_scalars() {
  const BigUint& n = Secp256k1::n();
  return {BigUint(0),          BigUint(1),
          BigUint(2),          n - BigUint(1),
          n,                   n + BigUint(1),
          n >> 1,              (n >> 1) + BigUint(1),
          BigUint(0xdeadbeef), n + n - BigUint(1)};
}

/// Pseudorandom curve point derived through the reference ladder.
EcPoint reference_point(Rng& rng) {
  const BigUint k = BigUint::from_bytes_be(rng.bytes(32)) % Secp256k1::n();
  return Secp256k1::mul(k + bignum::BigUint(1), Secp256k1::g());
}

}  // namespace

TEST(EcdsaFast, VariableBaseMatchesReferenceOnRandomScalars) {
  // ec_shamir(0, k, Q) walks only the Q half of the interleaved ladder.
  Rng rng(300);
  for (int i = 0; i < 24; ++i) {
    const BigUint k = BigUint::from_bytes_be(rng.bytes(32));
    const EcPoint q = reference_point(rng);
    EXPECT_EQ(ec_shamir(BigUint(0), k, q), Secp256k1::mul(k, q))
        << "iteration " << i;
  }
}

TEST(EcdsaFast, FastPathsMatchReferenceOnEdgeScalars) {
  Rng rng(301);
  const EcPoint q = reference_point(rng);
  for (const BigUint& k : edge_scalars()) {
    EXPECT_EQ(ec_shamir(BigUint(0), k, q), Secp256k1::mul(k, q)) << k.to_hex();
    EXPECT_EQ(ec_mul_gen(k), Secp256k1::mul(k, Secp256k1::g())) << k.to_hex();
  }
}

TEST(EcdsaFast, VariableBaseHandlesInfinityInput) {
  const EcPoint inf{BigUint{}, BigUint{}, true};
  EXPECT_TRUE(ec_shamir(BigUint(0), BigUint(12345), inf).infinity);
  EXPECT_TRUE(ec_shamir(BigUint(0), BigUint(0), inf).infinity);
}

TEST(EcdsaFast, GenMatchesReferenceOnRandomScalars) {
  Rng rng(302);
  for (int i = 0; i < 24; ++i) {
    const BigUint k = BigUint::from_bytes_be(rng.bytes(32));
    EXPECT_EQ(ec_mul_gen(k), Secp256k1::mul(k, Secp256k1::g()))
        << "iteration " << i;
  }
}

TEST(EcdsaFast, ShamirMatchesReferenceOnRandomPairs) {
  Rng rng(303);
  for (int i = 0; i < 24; ++i) {
    const BigUint u1 = BigUint::from_bytes_be(rng.bytes(32));
    const BigUint u2 = BigUint::from_bytes_be(rng.bytes(32));
    const EcPoint q = reference_point(rng);
    const EcPoint expected = Secp256k1::add(
        Secp256k1::mul(u1, Secp256k1::g()), Secp256k1::mul(u2, q));
    EXPECT_EQ(ec_shamir(u1, u2, q), expected) << "iteration " << i;
  }
}

TEST(EcdsaFast, ShamirEdgeCombinations) {
  Rng rng(304);
  const EcPoint q = reference_point(rng);
  const EcPoint& g = Secp256k1::g();
  const EcPoint neg_g{g.x, Secp256k1::p() - g.y, false};
  for (const BigUint& u1 : edge_scalars()) {
    for (const BigUint& u2 : {BigUint(0), BigUint(1), Secp256k1::n(),
                              Secp256k1::n() - BigUint(1)}) {
      const EcPoint expected = Secp256k1::add(
          Secp256k1::mul(u1, Secp256k1::g()), Secp256k1::mul(u2, q));
      EXPECT_EQ(ec_shamir(u1, u2, q), expected)
          << u1.to_hex() << " / " << u2.to_hex();
    }
  }
  // Cancellation corners: Q collides with +-G so the shared doubling chain
  // hits the equal-x branches of the addition formulas.
  EXPECT_EQ(ec_shamir(BigUint(5), BigUint(7), g),
            Secp256k1::mul(BigUint(12), g));
  EXPECT_TRUE(ec_shamir(BigUint(9), BigUint(9), neg_g).infinity);
  EXPECT_TRUE(
      ec_shamir(BigUint(0), BigUint(0),
                EcPoint{BigUint{}, BigUint{}, true}).infinity);
  EXPECT_TRUE(ec_shamir(BigUint(3), BigUint(4),
                        EcPoint{BigUint{}, BigUint{}, true}) ==
              Secp256k1::mul(BigUint(3), g));
}

TEST(EcdsaFast, SignVerifyAgreesWithOracle) {
  // Production signatures verify under the reference ladder, and the
  // production verifier and the oracle agree on valid, s+1 and
  // wrong-message signatures.
  Rng rng(305);
  const EcKeyPair kp = ec_generate(rng);
  EXPECT_EQ(kp.pub, Secp256k1::mul(kp.priv, Secp256k1::g()));
  const Digest256 other = sha256d(str_bytes("other"));
  for (int i = 0; i < 8; ++i) {
    const Bytes msg = rng.bytes(40);
    const Digest256 digest = sha256d(msg);
    const EcdsaSignature sig = ecdsa_sign(kp.priv, msg);
    EcdsaSignature bad = sig;
    bad.s = bad.s + BigUint(1);
    EXPECT_TRUE(ecdsa_verify_digest(kp.pub, digest, sig)) << i;
    EXPECT_TRUE(ecdsa_verify_digest_oracle(kp.pub, digest, sig)) << i;
    EXPECT_FALSE(ecdsa_verify_digest(kp.pub, digest, bad)) << i;
    EXPECT_FALSE(ecdsa_verify_digest_oracle(kp.pub, digest, bad)) << i;
    EXPECT_FALSE(ecdsa_verify_digest(kp.pub, other, sig)) << i;
    EXPECT_FALSE(ecdsa_verify_digest_oracle(kp.pub, other, sig)) << i;
  }
}

TEST(EcdsaFast, ConcurrentUseIsRaceFree) {
  // Several threads hammer the shared generator tables and their own
  // thread-local Montgomery caches at once; every thread must agree with
  // the reference ladder. Run under TSan in CI, this is the regression net
  // for the one-time precomputation init and the warmup call in the
  // checkqueue workers.
  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::vector<std::thread> workers;
  std::array<bool, kThreads> ok{};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &ok] {
      ecdsa_warmup();
      Rng rng(400 + static_cast<std::uint64_t>(t));
      bool all_match = true;
      for (int i = 0; i < kIters; ++i) {
        const bignum::BigUint k =
            bignum::BigUint::random_below(rng, Secp256k1::n());
        const EcPoint want = Secp256k1::mul(k, Secp256k1::g());
        all_match = all_match && ec_mul_gen(k) == want &&
                    ec_shamir(k, bignum::BigUint(), Secp256k1::g()) == want;
      }
      ok[static_cast<std::size_t>(t)] = all_match;
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[static_cast<std::size_t>(t)]) << t;
}

// --- Base58 ---

TEST(Base58, KnownVectors) {
  EXPECT_EQ(base58_encode(str_bytes("hello world")), "StV1DL6CwTryKyV");
  EXPECT_EQ(base58_encode({}), "");
  const Bytes zeros = {0x00, 0x00, 0x01};
  EXPECT_EQ(base58_encode(zeros), "112");
}

TEST(Base58, RoundTripRandom) {
  Rng rng(300);
  for (int i = 0; i < 50; ++i) {
    const Bytes data = rng.bytes(rng.below(40));
    EXPECT_EQ(base58_decode(base58_encode(data)), data);
  }
}

TEST(Base58, DecodeRejectsBadChars) {
  EXPECT_FALSE(base58_decode("0OIl").has_value());
  EXPECT_FALSE(base58_decode("abc!").has_value());
}

TEST(Base58Check, RoundTrip) {
  Rng rng(301);
  const Bytes payload = rng.bytes(20);
  const std::string addr = base58check_encode(0x00, payload);
  const auto back = base58check_decode(addr);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, 0x00);
  EXPECT_EQ(back->payload, payload);
}

TEST(Base58Check, DetectsCorruption) {
  const std::string addr = base58check_encode(0x00, Bytes(20, 7));
  std::string bad = addr;
  bad[bad.size() / 2] = bad[bad.size() / 2] == '2' ? '3' : '2';
  EXPECT_FALSE(base58check_decode(bad).has_value());
  EXPECT_FALSE(base58check_decode("abc").has_value());
}

}  // namespace
}  // namespace bcwan::crypto
