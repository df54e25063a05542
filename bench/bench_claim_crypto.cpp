// CLM-CRYPTO — primitive costs behind the paper's §5.1 design choices
// (AES-256-CBC blocks, RSA-512 blobs and signatures, ECDSA transactions),
// via google-benchmark.
#include <benchmark/benchmark.h>

#include "bignum/montgomery.hpp"
#include "bignum/primes.hpp"
#include "crypto/aes.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/ripemd160.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcwan;

void BM_Sha256_64B(benchmark::State& state) {
  util::Rng rng(1);
  const util::Bytes data = rng.bytes(64);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256d_Txid(benchmark::State& state) {
  util::Rng rng(2);
  const util::Bytes data = rng.bytes(250);  // typical tx size
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256d(data));
}
BENCHMARK(BM_Sha256d_Txid);

void BM_Ripemd160_32B(benchmark::State& state) {
  util::Rng rng(3);
  const util::Bytes data = rng.bytes(32);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::ripemd160(data));
}
BENCHMARK(BM_Ripemd160_32B);

void BM_Hash160_Pubkey(benchmark::State& state) {
  util::Rng rng(4);
  const util::Bytes data = rng.bytes(65);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::hash160(data));
}
BENCHMARK(BM_Hash160_Pubkey);

void BM_Aes256CbcEncryptReading(benchmark::State& state) {
  util::Rng rng(5);
  crypto::AesKey256 key{};
  crypto::AesBlock iv{};
  const util::Bytes reading = rng.bytes(13);  // paper-sized sensor reading
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::aes256_cbc_encrypt(key, iv, reading));
  }
}
BENCHMARK(BM_Aes256CbcEncryptReading);

void BM_RsaKeygen(benchmark::State& state) {
  util::Rng rng(6);
  const auto bits = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_generate(rng, bits));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_RsaEncryptBlob(benchmark::State& state) {
  util::Rng rng(7);
  const crypto::RsaKeyPair kp = crypto::rsa_generate(rng, 512);
  const util::Bytes blob = rng.bytes(34);  // the Fig. 4 blob
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_encrypt(kp.pub, blob, rng));
  }
}
BENCHMARK(BM_RsaEncryptBlob);

void BM_RsaDecryptBlob(benchmark::State& state) {
  util::Rng rng(8);
  const crypto::RsaKeyPair kp = crypto::rsa_generate(rng, 512);
  const util::Bytes ct = crypto::rsa_encrypt(kp.pub, rng.bytes(34), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_decrypt(kp.priv, ct));
  }
}
BENCHMARK(BM_RsaDecryptBlob);

void BM_RsaSignEnvelope(benchmark::State& state) {
  util::Rng rng(9);
  const crypto::RsaKeyPair kp = crypto::rsa_generate(rng, 512);
  const util::Bytes payload = rng.bytes(64 + 70);  // Em || ePk
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_sign(kp.priv, payload));
  }
}
BENCHMARK(BM_RsaSignEnvelope);

void BM_RsaVerifyEnvelope(benchmark::State& state) {
  util::Rng rng(10);
  const crypto::RsaKeyPair kp = crypto::rsa_generate(rng, 512);
  const util::Bytes payload = rng.bytes(64 + 70);
  const util::Bytes sig = crypto::rsa_sign(kp.priv, payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_verify(kp.pub, payload, sig));
  }
}
BENCHMARK(BM_RsaVerifyEnvelope);

void BM_RsaPairCheck(benchmark::State& state) {
  util::Rng rng(11);
  const crypto::RsaKeyPair kp = crypto::rsa_generate(rng, 512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_pair_matches(kp.pub, kp.priv));
  }
}
BENCHMARK(BM_RsaPairCheck);

void BM_EcdsaSign(benchmark::State& state) {
  util::Rng rng(12);
  const crypto::EcKeyPair kp = crypto::ec_generate(rng);
  const util::Bytes msg = rng.bytes(250);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ecdsa_sign(kp.priv, msg));
  }
}
BENCHMARK(BM_EcdsaSign)->Unit(benchmark::kMillisecond);

void BM_EcdsaVerify(benchmark::State& state) {
  util::Rng rng(13);
  const crypto::EcKeyPair kp = crypto::ec_generate(rng);
  const util::Bytes msg = rng.bytes(250);
  const crypto::EcdsaSignature sig = crypto::ecdsa_sign(kp.priv, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ecdsa_verify(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_EcdsaVerify)->Unit(benchmark::kMillisecond);

// Layer costs under the two headline operations. A 512-bit keygen is
// dominated by Miller–Rabin rounds over its 256-bit prime candidates (4-limb
// Montgomery); an ECDSA signature is one fixed-base scalar multiplication
// plus one Fermat inversion of the nonce mod n.

void BM_MillerRabinRound256(benchmark::State& state) {
  util::Rng rng(14);
  const bignum::BigUint n = bignum::generate_prime(rng, 256);
  bignum::BigUint d = n - bignum::BigUint(1);
  std::size_t r = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++r;
  }
  const bignum::MontgomeryCtx ctx(n);
  const bignum::BigUint base =
      bignum::BigUint::random_below(rng, n - bignum::BigUint(4)) +
      bignum::BigUint(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.strong_probable_prime(base, d, r));
  }
}
BENCHMARK(BM_MillerRabinRound256)->Unit(benchmark::kMicrosecond);

void BM_EcMulGen(benchmark::State& state) {
  util::Rng rng(15);
  const bignum::BigUint k = bignum::BigUint::random_below(
      rng, crypto::Secp256k1::n());
  for (auto _ : state) benchmark::DoNotOptimize(crypto::ec_mul_gen(k));
}
BENCHMARK(BM_EcMulGen)->Unit(benchmark::kMicrosecond);

void BM_ScalarInv(benchmark::State& state) {
  util::Rng rng(16);
  const bignum::BigUint& n = crypto::Secp256k1::n();
  const bignum::BigUint n_minus_2 = n - bignum::BigUint(2);
  const bignum::BigUint s = bignum::BigUint::random_below(rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bignum::MontgomeryCtx::cached(n)->mod_exp(s, n_minus_2));
  }
}
BENCHMARK(BM_ScalarInv)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
