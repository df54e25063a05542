// VAL-TPUT — block-validation throughput.
//
// The paper's Fig. 6 stall is block *verification* saturating the daemon;
// this bench measures connect_block on one block of fresh P2PKH spends:
//
//   serial_baseline     threads=1, caches off: every signature is verified
//                       for real (the first-sync / adversarial-flood regime)
//   parallel (sweep)    + check queue at 2/4/8 threads
//   parallel_cache      + salted sig/script-execution caches, warmed the
//                         way production warms them (every tx was fully
//                         validated at mempool admission)
//
// and the two crypto fast paths against the oracles their tests use:
//
//   cold_speedup_vs_serial  reference-ladder ECDSA verify
//                           (ecdsa_verify_digest_oracle) over the block's
//                           input signatures / production ecdsa_verify_digest
//                           over the same set
//   rsa_crt_speedup         full-width OP_CHECKRSA512PAIR probe round trip
//                           over the reveal keys / production
//                           rsa_pair_matches (CRT recovered from the wire key)
//
// Every configuration connects the *same* block from the same starting UTXO
// set; serial and parallel verdicts (including a corrupted-block rejection)
// and production-vs-oracle signature verdicts are cross-checked before any
// timing is reported. Results are printed and written as JSON to
// BENCH_validation.json.
//
// BCWAN_SMOKE=1 shrinks the workload for CI sanity runs (e.g. under TSan).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "chain/blockchain.hpp"
#include "chain/mempool.hpp"
#include "chain/miner.hpp"
#include "chain/sigcache.hpp"
#include "chain/validation.hpp"
#include "chain/wallet.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/rsa.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace bcwan;
using Clock = std::chrono::steady_clock;

chain::Transaction make_spend(const chain::Wallet& owner,
                              const chain::OutPoint& outpoint,
                              const chain::TxOut& coin,
                              const script::Script& dest_script,
                              chain::Amount fee) {
  chain::Transaction tx;
  chain::TxIn in;
  in.prevout = outpoint;
  tx.vin.push_back(std::move(in));
  chain::TxOut out;
  out.value = coin.value - fee;
  out.script_pubkey = dest_script;
  tx.vout.push_back(std::move(out));
  owner.sign_p2pkh_input(tx, 0, coin.script_pubkey);
  return tx;
}

struct ConfigResult {
  std::string name;
  unsigned threads = 1;
  bool cache = false;
  double connect_ms_mean = 0.0;
};

struct PairedMs {
  double slow = 0.0;
  double fast = 0.0;
};

/// Times two implementations of one per-item check, interleaved: item i
/// runs `slow(i)` then `fast(i)` back to back, so load drifting on a shared
/// machine hits both sides alike. One untimed warm-up pass (fills the
/// per-thread caches production keeps warm), then the median over `reps`
/// timed passes. Exits if either side rejects an item.
template <typename Slow, typename Fast>
PairedMs paired_median_ms(int reps, std::size_t items, Slow&& slow,
                          Fast&& fast) {
  auto check = [](bool ok) {
    if (!ok) {
      std::printf("unexpected rejection in a timed check\n");
      std::exit(1);
    }
  };
  for (std::size_t i = 0; i < items; ++i) check(slow(i) && fast(i));
  util::SampleStats slow_ms, fast_ms;
  for (int rep = 0; rep < reps; ++rep) {
    double slow_sum = 0.0, fast_sum = 0.0;
    for (std::size_t i = 0; i < items; ++i) {
      const auto t0 = Clock::now();
      check(slow(i));
      const auto t1 = Clock::now();
      check(fast(i));
      const auto t2 = Clock::now();
      slow_sum += std::chrono::duration<double, std::milli>(t1 - t0).count();
      fast_sum += std::chrono::duration<double, std::milli>(t2 - t1).count();
    }
    slow_ms.add(slow_sum);
    fast_ms.add(fast_sum);
  }
  return {slow_ms.median(), fast_ms.median()};
}

struct InputSig {
  crypto::EcPoint pub;
  crypto::Digest256 digest;
  crypto::EcdsaSignature sig;
};

/// The (pubkey, sighash, signature) of input 0 of every spend in `block`;
/// each spends a P2PKH output paying `spent`.
std::vector<InputSig> input_signatures(const chain::Block& block,
                                       const script::Script& spent) {
  std::vector<InputSig> out;
  for (std::size_t t = 1; t < block.txs.size(); ++t) {
    const chain::Transaction& tx = block.txs[t];
    const auto ops = tx.vin[0].script_sig.decode();
    if (!ops || ops->size() != 2) continue;
    const auto sig = crypto::EcdsaSignature::deserialize((*ops)[0].push);
    const auto pub = crypto::ec_pubkey_decode((*ops)[1].push);
    if (!sig || !pub) continue;
    out.push_back({*pub, chain::PrecomputedTxData(tx).sighash(0, spent), *sig});
  }
  return out;
}

/// rsa_pair_matches' probe round trip with the full-width private exponent.
bool full_width_pair_matches(const crypto::RsaPublicKey& pub,
                             const crypto::RsaPrivateKey& priv) {
  if (!(pub.n == priv.n)) return false;
  for (std::uint64_t probe : {0x42ULL, 0xdeadbeefULL}) {
    const bignum::BigUint x = bignum::BigUint(probe) % pub.n;
    const bignum::BigUint y = bignum::BigUint::mod_exp(x, pub.e, pub.n);
    if (!(bignum::BigUint::mod_exp(y, priv.d, priv.n) == x)) return false;
  }
  return true;
}

void set_caches(bool enabled) {
  chain::sig_cache().set_enabled(enabled);
  chain::script_exec_cache().set_enabled(enabled);
  chain::sig_cache().clear();
  chain::script_exec_cache().clear();
}

}  // namespace

int main() {
  bench::print_header("VAL-TPUT", "block validation pipeline throughput");

  const bool smoke = std::getenv("BCWAN_SMOKE") != nullptr;
  const std::size_t kTxs = smoke ? 24 : 160;
  const int kReps = 5;  // smoke shrinks the block, not the repetitions

  chain::ChainParams params;
  params.pow_zero_bits = 4;
  params.coinbase_maturity = 2;
  chain::Blockchain bc(params);
  chain::Mempool pool(params);
  const chain::Wallet miner_wallet = chain::Wallet::from_seed("val-miner");
  const chain::Wallet alice = chain::Wallet::from_seed("val-alice");
  const chain::Miner miner(params, miner_wallet.pkh());

  std::uint64_t now = 0;
  auto mine = [&] {
    const chain::Block block = miner.mine(bc, pool, ++now);
    bc.accept_block(block);
    pool.remove_confirmed(block);
  };
  for (int i = 0; i < 6; ++i) mine();
  for (int i = 0; i < 8; ++i) {
    const auto tx = miner_wallet.create_payment(bc, &pool, alice.pkh(),
                                                40 * chain::kCoin, 1000);
    if (tx) pool.accept(*tx, bc.utxo(), bc.height() + 1);
    mine();
  }

  // A block of fresh chained P2PKH spends (ECDSA dominates each check).
  set_caches(true);
  const script::Script alice_script = script::make_p2pkh(alice.pkh());
  chain::Mempool block_pool(params);
  std::size_t queued = 0;
  for (const auto& [outpoint, coin] : alice.spendable(bc)) {
    chain::OutPoint cursor = outpoint;
    chain::TxOut cursor_out = coin.out;
    while (queued < kTxs) {
      chain::Transaction tx =
          make_spend(alice, cursor, cursor_out, alice_script, 1000);
      cursor = chain::OutPoint{tx.txid(), 0};
      cursor_out = tx.vout[0];
      if (!block_pool.accept(tx, bc.utxo(), bc.height() + 1).ok()) break;
      ++queued;
      if (queued % 20 == 0) break;  // bounded chains; move to the next coin
    }
    if (queued >= kTxs) break;
  }
  chain::Block block = miner.assemble(bc, block_pool, ++now);
  chain::solve_pow(block.header);
  const int height = bc.height() + 1;
  std::printf("block under test: %zu transactions (%u hardware threads)\n",
              block.txs.size(), std::thread::hardware_concurrency());

  // --- Verdict equivalence gate ------------------------------------------
  bool verdicts_match = true;
  {
    set_caches(false);
    chain::ChainParams serial_p = params;
    chain::ChainParams parallel_p = params;
    parallel_p.script_check_threads = 8;

    chain::UtxoSet u1 = bc.utxo();
    chain::UtxoSet u2 = bc.utxo();
    chain::BlockUndo undo1, undo2;
    const auto r1 = chain::connect_block(block, u1, height, serial_p, undo1);
    const auto r2 = chain::connect_block(block, u2, height, parallel_p, undo2);
    verdicts_match &= r1.ok() && r2.ok() && u1.size() == u2.size() &&
                      u1.total_value() == u2.total_value();

    // Corrupt one mid-block signature: both paths must reject with the same
    // transaction index and error.
    chain::Block bad = block;
    chain::Transaction& victim = bad.txs[bad.txs.size() / 2];
    util::Bytes tampered = victim.vin[0].script_sig.bytes();
    tampered[tampered.size() / 2] ^= 0x01;
    victim.vin[0].script_sig = script::Script(std::move(tampered));
    victim.invalidate_txid();
    bad.header.merkle_root = chain::compute_merkle_root(bad.txs);
    chain::solve_pow(bad.header);
    chain::UtxoSet u3 = bc.utxo();
    chain::UtxoSet u4 = bc.utxo();
    const auto r3 = chain::connect_block(bad, u3, height, serial_p, undo1);
    const auto r4 = chain::connect_block(bad, u4, height, parallel_p, undo2);
    verdicts_match &= !r3.ok() && !r4.ok() && r3.error == r4.error &&
                      r3.failed_tx_index == r4.failed_tx_index &&
                      r3.tx_failure.error == r4.tx_failure.error &&
                      r3.tx_failure.script_error == r4.tx_failure.script_error;
  }
  // Production verify and the reference-ladder oracle must accept every
  // input signature and reject a tampered one.
  const std::vector<InputSig> sigs = input_signatures(block, alice_script);
  verdicts_match &= sigs.size() + 1 == block.txs.size();
  for (const InputSig& in : sigs)
    verdicts_match &= crypto::ecdsa_verify_digest(in.pub, in.digest, in.sig) &&
                      crypto::ecdsa_verify_digest_oracle(in.pub, in.digest,
                                                         in.sig);
  if (!sigs.empty()) {
    InputSig bad_sig = sigs.front();
    bad_sig.sig.s = bad_sig.sig.s + bignum::BigUint(1);
    verdicts_match &=
        !crypto::ecdsa_verify_digest(bad_sig.pub, bad_sig.digest,
                                     bad_sig.sig) &&
        !crypto::ecdsa_verify_digest_oracle(bad_sig.pub, bad_sig.digest,
                                            bad_sig.sig);
  }
  std::printf("serial/parallel + production/oracle verdicts match: %s\n\n",
              verdicts_match ? "yes" : "NO — BUG");

  // --- Timed configurations ----------------------------------------------
  auto measure = [&](const std::string& name, unsigned threads, bool cache) {
    set_caches(cache);
    chain::ChainParams p = params;
    p.script_check_threads = threads;
    chain::UtxoSet utxo = bc.utxo();
    chain::BlockUndo undo;
    double total_ms = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      if (cache) {
        // Production warm-up, untimed: mempool admission validated every
        // tx once. A connect consumes those cache entries, so every
        // repetition admits the block's txs again.
        chain::Mempool warm(params);
        for (std::size_t i = 1; i < block.txs.size(); ++i)
          warm.accept(block.txs[i], bc.utxo(), height);
      }
      const auto t0 = Clock::now();
      const auto result = chain::connect_block(block, utxo, height, p, undo);
      const auto t1 = Clock::now();
      if (!result.ok()) {
        std::printf("unexpected failure in %s\n", name.c_str());
        std::exit(1);
      }
      total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      chain::disconnect_block(undo, utxo);
    }
    ConfigResult r{name, threads, cache, total_ms / kReps};
    std::printf("%-20s threads=%u cache=%d : %8.2f ms/connect\n",
                r.name.c_str(), threads, cache, r.connect_ms_mean);
    return r;
  };

  std::vector<ConfigResult> results;
  results.push_back(measure("serial_baseline", 1, false));
  for (unsigned threads : {2u, 4u, 8u}) {
    results.push_back(measure("parallel_t" + std::to_string(threads), threads,
                              false));
  }
  results.push_back(measure("parallel_cache", 8, true));
  set_caches(true);

  const double baseline = results.front().connect_ms_mean;
  double best = baseline;
  for (const ConfigResult& r : results)
    best = std::min(best, r.connect_ms_mean);
  std::printf("\nfull pipeline speedup vs serial baseline: %.1fx\n",
              baseline / best);

  // --- ECDSA: production verify vs the reference-ladder oracle -----------
  const PairedMs verify_ms = paired_median_ms(
      kReps, sigs.size(),
      [&](std::size_t i) {
        return crypto::ecdsa_verify_digest_oracle(sigs[i].pub, sigs[i].digest,
                                                  sigs[i].sig);
      },
      [&](std::size_t i) {
        return crypto::ecdsa_verify_digest(sigs[i].pub, sigs[i].digest,
                                           sigs[i].sig);
      });
  const double cold_speedup =
      verify_ms.fast > 0.0 ? verify_ms.slow / verify_ms.fast : 0.0;
  std::printf("ecdsa verify x%zu: oracle ladder %.2f ms -> production %.2f ms "
              "(%.1fx)\n",
              sigs.size(), verify_ms.slow, verify_ms.fast, cold_speedup);

  // The reveal section below mines new blocks (advancing bc and spending
  // alice's coins), which invalidates `block` against the future UTXO set;
  // snapshot the current state for the telemetry passes at the end.
  const chain::UtxoSet pre_rsa_utxo = bc.utxo();

  // --- OP_CHECKRSA512PAIR reveal block ------------------------------------
  // Offers are mined first; the reveal block is all redeems, each of which
  // reveals a wire-format (n||e||d) private key that the verifier's
  // OP_CHECKRSA512PAIR must check against the locked public key. Its keys
  // are timed below; the block itself feeds the telemetry snapshot.
  const std::size_t kReveals = smoke ? 2 : 8;
  util::Rng rsa_rng(4242);
  std::vector<crypto::RsaKeyPair> ephemerals;
  std::vector<chain::Transaction> offers;
  const chain::Wallet gateway = chain::Wallet::from_seed("val-gateway");
  for (std::size_t i = 0; i < kReveals; ++i) {
    ephemerals.push_back(crypto::rsa_generate(rsa_rng, 512));
    const auto offer = alice.create_key_release_offer(
        bc, &pool, ephemerals.back().pub, gateway.pkh(), 1 * chain::kCoin,
        1000, bc.height() + 100);
    if (!offer) break;
    if (!pool.accept(*offer, bc.utxo(), bc.height() + 1).ok()) break;
    offers.push_back(*offer);
  }
  mine();
  chain::Mempool redeem_pool(params);
  for (std::size_t i = 0; i < offers.size(); ++i) {
    const chain::Transaction redeem = gateway.create_redeem(
        chain::OutPoint{offers[i].txid(), 0}, offers[i].vout[0],
        ephemerals[i].priv, 1000);
    redeem_pool.accept(redeem, bc.utxo(), bc.height() + 1);
  }
  chain::Block rsa_block = miner.assemble(bc, redeem_pool, ++now);
  chain::solve_pow(rsa_block.header);
  const int rsa_height = bc.height() + 1;
  const std::size_t rsa_reveal_txs = rsa_block.txs.size() - 1;

  // --- OP_CHECKRSA512PAIR: full-width exponent vs production CRT ---------
  // The reveal keys in wire format (n||e||d, no CRT fields), exactly what
  // the verifier deserializes from a redeem; production recovers CRT from
  // (e, d) and caches it per thread, so the warm-up pass pays recovery.
  std::vector<crypto::RsaPrivateKey> wire_keys;
  for (std::size_t i = 0; i < offers.size(); ++i)
    wire_keys.push_back(
        *crypto::RsaPrivateKey::deserialize(ephemerals[i].priv.serialize()));
  const PairedMs pair_ms = paired_median_ms(
      kReps, wire_keys.size(),
      [&](std::size_t i) {
        return full_width_pair_matches(ephemerals[i].pub, wire_keys[i]);
      },
      [&](std::size_t i) {
        return crypto::rsa_pair_matches(ephemerals[i].pub, wire_keys[i]);
      });
  const double rsa_plain_ms = pair_ms.slow;
  const double rsa_crt_ms = pair_ms.fast;
  const double rsa_crt_speedup =
      rsa_crt_ms > 0.0 ? rsa_plain_ms / rsa_crt_ms : 0.0;
  std::printf("rsa pair check x%zu: full-width %.3f ms -> crt %.3f ms "
              "(%.2fx)\n",
              wire_keys.size(), rsa_plain_ms, rsa_crt_ms, rsa_crt_speedup);

  std::FILE* f = std::fopen("BENCH_validation.json", "w");
  if (f != nullptr) {
    bench::JsonWriter w(f);
    w.begin_object();
    w.str("experiment", "VAL-TPUT");
    w.boolean("smoke", smoke);
    w.uint("block_txs", block.txs.size());
    w.uint("hardware_threads", std::thread::hardware_concurrency());
    w.integer("repetitions", kReps);
    w.boolean("verdicts_match", verdicts_match);
    w.num("cold_connect_ms", baseline, "%.3f");
    w.uint("verified_signatures", sigs.size());
    w.num("oracle_verify_ms", verify_ms.slow, "%.3f");
    w.num("verify_ms", verify_ms.fast, "%.3f");
    w.num("cold_speedup_vs_serial", cold_speedup, "%.2f");
    w.uint("rsa_reveal_txs", rsa_reveal_txs);
    w.num("rsa_plain_ms", rsa_plain_ms, "%.3f");
    w.num("rsa_crt_ms", rsa_crt_ms, "%.3f");
    w.num("rsa_crt_speedup", rsa_crt_speedup, "%.2f");
    w.begin_array("configs");
    for (const ConfigResult& r : results) {
      w.begin_object();
      w.str("name", r.name);
      w.uint("threads", r.threads);
      w.boolean("sigcache", r.cache);
      w.num("connect_ms_mean", r.connect_ms_mean, "%.3f");
      w.num("speedup_vs_serial", baseline / r.connect_ms_mean, "%.2f");
      w.end_object();
    }
    w.end_array();
    w.uint("peak_rss_bytes", bench::peak_rss_bytes());
    w.end_object();
    w.finish();
    std::fclose(f);
    std::printf("results written to BENCH_validation.json\n");
  }

  // Telemetry snapshot — taken from one extra *untimed* connect so enabling
  // the runtime flag cannot perturb the numbers above (DESIGN.md §10).
  if (telemetry::compiled_in()) {
    telemetry::set_enabled(true);
    telemetry::registry().reset_all();
    chain::ChainParams p = params;
    p.script_check_threads = 8;
    // Two connects over warm caches so the snapshot's hit-rate gauges are
    // exercised, not vacuously zero.
    set_caches(true);
    chain::BlockValidationResult result;
    for (int pass = 0; pass < 2; ++pass) {
      // Pass 1 is cold (caches just cleared). A connect never fills the
      // script-exec cache but does fill the sigcache, so in pass 2 scripts
      // re-execute and check_sig takes its cached path — the snapshot then
      // shows both sigverify outcome counters, not just cold_valid.
      chain::UtxoSet utxo = pre_rsa_utxo;
      chain::BlockUndo undo;
      result = chain::connect_block(block, utxo, height, p, undo);
      if (!result.ok()) break;
    }
    if (result.ok()) {
      // One reveal-block connect so the RSA/OP_CHECKRSA512PAIR path shows
      // up in the same snapshot.
      chain::UtxoSet utxo = bc.utxo();
      chain::BlockUndo undo;
      result = chain::connect_block(rsa_block, utxo, rsa_height, p, undo);
    }
    // Snapshot while still enabled: collectors write gauges at export time,
    // and those writes are no-ops once the runtime flag drops.
    if (result.ok() &&
        telemetry::write_json_snapshot("TELEMETRY_validation.json",
                                       telemetry::registry(),
                                       /*include_spans=*/false)) {
      std::printf("telemetry snapshot written to TELEMETRY_validation.json\n");
    }
    telemetry::set_enabled(false);
  }
  return verdicts_match ? 0 : 1;
}
