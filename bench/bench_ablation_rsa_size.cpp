// ABL-RSA — the §6 key-size trade-off.
//
// "We chose RSA-512 as method to encrypt our data due to the size limit of
// the payload that can be sent on the LoRa network ... For application
// where this may be a problem it is possible to use higher levels of
// encryption but messages will be lengthier on the LoRa network."
//
// Sweeps the modulus: payload bytes, SF7 airtime, max msgs/hour at 1% duty,
// and measured crypto cost on this machine. Each size gets one warm-up key,
// then kKeys timed keys from one seeded stream (median and IQR reported);
// BCWAN_SMOKE=1 times fewer 2048-bit keys. Writes BENCH_rsa_size.json with
// a correctness flag: the seed-1 512-bit key must be the one
// Rsa.GeneratedKeysPinned pins.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "lora/airtime.hpp"

namespace {

using namespace bcwan;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kKeys = 101;
constexpr std::size_t kSmokeKeys2048 = 5;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// The seed-1 512-bit key and the draw after it, as pinned by
// Rsa.GeneratedKeysPinned: the digest of (private key, p, q).
bool seed1_key_pinned() {
  util::Rng rng(1);
  const crypto::RsaKeyPair kp = crypto::rsa_generate(rng, 512);
  util::Bytes blob = kp.priv.serialize();
  for (const bignum::BigUint* v : {&kp.priv.p, &kp.priv.q}) {
    const util::Bytes be = v->to_bytes_be();
    blob.insert(blob.end(), be.begin(), be.end());
  }
  const crypto::Digest256 h = crypto::sha256(blob);
  return util::to_hex(util::ByteView(h.data(), 8)) == "d603acfe93fa2809" &&
         rng.next() == 0xe89f153af8a4a418ULL;
}

struct SizeResult {
  std::size_t bits = 0, keys = 0;
  std::size_t em_bytes = 0, sig_bytes = 0, payload_bytes = 0;
  double airtime_ms = 0;
  int max_msgs_per_hour = 0;
  double keygen_ms_median = 0, keygen_ms_q1 = 0, keygen_ms_q3 = 0;
  double enc_sig_ms_median = 0;
};

SizeResult measure(std::size_t bits, std::size_t keys, util::Rng& rng) {
  SizeResult out;
  out.bits = bits;
  out.keys = keys;
  (void)crypto::rsa_generate(rng, bits);  // warm-up
  util::SampleStats keygen_ms, enc_sig_ms;
  for (std::size_t i = 0; i < keys; ++i) {
    auto t0 = Clock::now();
    const crypto::RsaKeyPair kp = crypto::rsa_generate(rng, bits);
    keygen_ms.add(ms_since(t0));

    const util::Bytes blob = rng.bytes(34);  // Fig. 4 blob
    t0 = Clock::now();
    const util::Bytes em = crypto::rsa_encrypt(kp.pub, blob, rng);
    const util::Bytes sig = crypto::rsa_sign(kp.priv, em);
    enc_sig_ms.add(ms_since(t0));
    out.em_bytes = em.size();
    out.sig_bytes = sig.size();
  }
  out.keygen_ms_median = keygen_ms.median();
  out.keygen_ms_q1 = keygen_ms.percentile(25.0);
  out.keygen_ms_q3 = keygen_ms.percentile(75.0);
  out.enc_sig_ms_median = enc_sig_ms.median();

  const lora::LoraConfig sf7;
  out.payload_bytes = out.em_bytes + out.sig_bytes;
  const std::size_t frame = out.payload_bytes + 4 + 20;  // header + @R
  out.airtime_ms = 1000.0 * lora::airtime_s(sf7, frame);
  out.max_msgs_per_hour = lora::max_messages_per_hour(sf7, frame, 0.01);
  return out;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("BCWAN_SMOKE") != nullptr;
  bench::print_header("ABL-RSA", "RSA modulus size vs LoRa payload");

  const bool pinned = seed1_key_pinned();
  std::printf("seed-1 512-bit key matches the pinned digest: %s\n\n",
              pinned ? "yes" : "NO");

  std::printf("%-6s %-5s %-6s %-6s %-10s %-11s %-10s %-10s %-10s %-10s\n",
              "bits", "keys", "Em_B", "Sig_B", "payload_B", "airtime_ms",
              "max_msg/h", "keygen_ms", "iqr_ms", "enc+sig_ms");
  util::Rng rng(1);
  std::vector<SizeResult> results;
  for (const std::size_t bits : {512u, 768u, 1024u, 2048u}) {
    const std::size_t keys = smoke && bits == 2048 ? kSmokeKeys2048 : kKeys;
    const SizeResult& r = results.emplace_back(measure(bits, keys, rng));
    std::printf("%-6zu %-5zu %-6zu %-6zu %-10zu %-11.1f %-10d %-10.2f %-10.2f "
                "%-10.3f\n",
                r.bits, r.keys, r.em_bytes, r.sig_bytes, r.payload_bytes,
                r.airtime_ms, r.max_msgs_per_hour, r.keygen_ms_median,
                r.keygen_ms_q3 - r.keygen_ms_q1, r.enc_sig_ms_median);
  }

  std::printf(
      "\nshape check: payload doubles with the modulus (128 B at 512 ->\n"
      "512 B at 2048), airtime grows accordingly and the 1%%-duty message\n"
      "budget shrinks ~4x; keygen cost grows superlinearly — the reasons\n"
      "the paper accepts RSA-512's weaker security ('the amount to spend\n"
      "in order to decrypt the data is much more than the value that the\n"
      "foreign gateway is asking').\n"
      "note: 2048-bit payloads exceed LoRa SF12 limits entirely; even at\n"
      "SF7 the 256 B LoRaWAN maximum forces fragmentation.\n");

  std::FILE* f = std::fopen("BENCH_rsa_size.json", "w");
  if (f != nullptr) {
    bench::JsonWriter w(f);
    w.begin_object();
    w.str("experiment", "ABL-RSA");
    w.boolean("smoke", smoke);
    bench::write_host(w);
    w.boolean("keygen_pinned", pinned);
    w.begin_array("sizes");
    for (const SizeResult& r : results) {
      w.begin_object();
      w.uint("bits", r.bits);
      w.uint("keys", r.keys);
      w.uint("em_bytes", r.em_bytes);
      w.uint("sig_bytes", r.sig_bytes);
      w.uint("payload_bytes", r.payload_bytes);
      w.num("airtime_ms", r.airtime_ms, "%.1f");
      w.integer("max_msgs_per_hour", r.max_msgs_per_hour);
      w.num("keygen_ms_median", r.keygen_ms_median, "%.3f");
      w.num("keygen_ms_iqr", r.keygen_ms_q3 - r.keygen_ms_q1, "%.3f");
      w.num("enc_sig_ms_median", r.enc_sig_ms_median, "%.4f");
      w.end_object();
    }
    w.end_array();
    w.uint("peak_rss_bytes", bench::peak_rss_bytes());
    w.end_object();
    w.finish();
    std::fclose(f);
    std::printf("results written to BENCH_rsa_size.json\n");
  }
  return pinned ? 0 : 1;
}
